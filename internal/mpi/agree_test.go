// External test package: the agreement runs over faultinject-wrapped
// transporttest worlds (which import mpi), on inproc and on TCP.
package mpi_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

// TestAgree holds mpi.Agree to its contract on a 4-rank group, with every
// kill point scripted on the agreement's own rounds: whatever dies, and
// however far through a round it got, every survivor returns the same
// (agreed, dead); the minimum lies between the survivors' and everybody's;
// the dead set names only members that died, and every member dead before
// the call; a live member the others list as dead gets an error; failure-free
// calls leave the unexpected-message queue as they found it; and no goroutine
// outlives the world.
func TestAgree(t *testing.T) {
	const n = 4
	// crash scripts a rank's death on the count-th frame of round `round` of
	// the world's first collective: the agreement under test.
	crash := func(round, count int) faultinject.Script {
		return faultinject.Script{CrashTag: mpi.CollTag(0, round), CrashCount: count}
	}
	rows := []struct {
		name    string
		crashes map[int]faultinject.Script // ranks that die inside the call
		before  []int                      // ranks dead before the call
		accused int                        // listed dead by every other member (-1: none)
		calls   int
	}{
		{name: "no-death", accused: -1, calls: 100},
		{name: "dead-before-call", before: []int{2}, accused: -1, calls: 1},
		// Rank 1 reaches rank 0 with its first round and dies sending to rank 2.
		{name: "killed-mid-first-round", crashes: map[int]faultinject.Script{1: crash(0, 2)}, accused: -1, calls: 1},
		{name: "killed-in-decided-round", crashes: map[int]faultinject.Script{3: crash(1, 2)}, accused: -1, calls: 1},
		{name: "two-deaths", crashes: map[int]faultinject.Script{1: crash(0, 2), 3: crash(0, 1)}, accused: -1, calls: 1},
		{name: "live-member-listed-dead", accused: 2, calls: 1},
	}
	backends := []func(transporttest.WrapConn) transporttest.Backend{
		func(w transporttest.WrapConn) transporttest.Backend { return transporttest.InprocWrapped("inproc", w) },
		func(w transporttest.WrapConn) transporttest.Backend {
			return transporttest.TCPWrapped("tcp", w, func(_ int, cfg *tcp.Config) {
				cfg.HeartbeatInterval = 500 * time.Millisecond
				cfg.DrainTimeout = 2 * time.Second
			})
		},
	}
	for _, mk := range backends {
		for _, row := range rows {
			conns := make([]*faultinject.Conn, n)
			b := mk(func(rank int, inner transport.Conn) transport.Conn {
				conns[rank] = faultinject.New(inner, row.crashes[rank])
				return conns[rank]
			})
			t.Run(b.Name()+"/"+row.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				comms, cleanup, err := b.Open(n)
				if err != nil {
					t.Fatal(err)
				}
				vals := func(rank, call int) []int { return []int{10*rank + call, 100 - rank, rank % 2} }
				minVals := func(call int) []int { return []int{call, 100 - (n - 1), 0} }
				agreed := make([][]int, n)
				dead := make([][]int, n)
				errs := make([]error, n)
				var start sync.WaitGroup
				start.Add(n)
				program := func(c *mpi.Comm) error {
					r := c.Rank()
					if slices.Contains(row.before, r) {
						conns[r].Kill()
						start.Done()
						return nil
					}
					if row.accused >= 0 && r != row.accused {
						c.NotePeerFailure(transport.PeerError{Rank: row.accused, Phase: "test"})
					}
					if c.CollSeq() != 0 {
						return fmt.Errorf("rank %d: collective sequence %d, the crash scripts assume 0", r, c.CollSeq())
					}
					queued := mpi.UnexpectedLen(c) // no rank sends before every rank has looked
					start.Done()
					start.Wait()
					for call := 0; call < row.calls; call++ {
						a, d, err := mpi.Agree(c, vals(r, call))
						if err != nil {
							return err
						}
						if want := minVals(call); row.calls > 1 && (!slices.Equal(a, want) || len(d) != 0) {
							return fmt.Errorf("rank %d call %d: agreed %v dead %v, want %v and nobody", r, call, a, d, want)
						}
						agreed[r], dead[r] = a, d
					}
					if row.calls > 1 {
						if got := mpi.UnexpectedLen(c); got != queued {
							return fmt.Errorf("rank %d: %d unexpected messages after %d failure-free agreements, %d before", r, got, row.calls, queued)
						}
					}
					return nil
				}
				var wg sync.WaitGroup
				for r := range comms {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						errs[r] = mpi.Execute(comms[r], program)
					}(r)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					cleanup()
					t.Fatalf("agreement still running 30s in; errors so far %v", errs)
				}
				cleanup()

				var survivors, died []int
				for r := 0; r < n; r++ {
					switch _, crashed := row.crashes[r]; {
					case crashed:
						if !errors.Is(errs[r], faultinject.ErrCrashed) {
							t.Errorf("rank %d: %v, want the scripted crash", r, errs[r])
						}
						died = append(died, r)
					case slices.Contains(row.before, r):
						died = append(died, r)
					case r == row.accused:
						if errs[r] == nil {
							t.Errorf("rank %d, listed dead by every other member, returned %v %v and no error", r, agreed[r], dead[r])
						}
						died = append(died, r)
					default:
						if errs[r] != nil {
							t.Errorf("survivor %d: %v", r, errs[r])
						}
						survivors = append(survivors, r)
					}
				}
				if t.Failed() {
					return
				}
				last := row.calls - 1
				s0 := survivors[0]
				for _, r := range survivors[1:] {
					if !slices.Equal(agreed[r], agreed[s0]) || !slices.Equal(dead[r], dead[s0]) {
						t.Errorf("survivors disagree: rank %d (%v, %v), rank %d (%v, %v)", s0, agreed[s0], dead[s0], r, agreed[r], dead[r])
					}
				}
				for i := range agreed[s0] {
					lo, hi := vals(0, last)[i], vals(s0, last)[i]
					for r := 0; r < n; r++ {
						lo = min(lo, vals(r, last)[i])
						if slices.Contains(survivors, r) {
							hi = min(hi, vals(r, last)[i])
						}
					}
					if got := agreed[s0][i]; got < lo || got > hi {
						t.Errorf("agreed[%d] = %d, want the minimum over the survivors (%d) or over everybody (%d)", i, got, hi, lo)
					}
				}
				for _, d := range dead[s0] {
					if !slices.Contains(died, d) {
						t.Errorf("agreed dead set %v names live rank %d", dead[s0], d)
					}
				}
				for _, d := range append(append([]int(nil), row.before...), row.accused) {
					if d >= 0 && !slices.Contains(dead[s0], d) {
						t.Errorf("agreed dead set %v lacks rank %d, dead before the call", dead[s0], d)
					}
				}
				deadline := time.Now().Add(20 * time.Second)
				for runtime.NumGoroutine() > base+3 {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<20)
						t.Fatalf("goroutines: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(50 * time.Millisecond)
				}
			})
		}
	}
}
