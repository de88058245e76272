package shuffle

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/store"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

func rebalanceSample(id int) data.Sample {
	return data.Sample{ID: id, Label: id % 7, Features: []float32{float32(id), float32(id) * 0.5}, Bytes: 64}
}

// TestRebalanceFromSkew: rank 0 starts holding the entire dataset (the
// extreme skew a fresh joiner world exhibits: joiners hold nothing) and a
// rebalance leaves every rank with a balanced, disjoint, conserved share.
func TestRebalanceFromSkew(t *testing.T) {
	const n, m = 41, 4
	finals := make([][]int, m)
	err := mpi.Run(m, func(c *mpi.Comm) error {
		st := store.NewLocal(0)
		if c.Rank() == 0 {
			for id := 0; id < n; id++ {
				if err := st.Put(rebalanceSample(id)); err != nil {
					return err
				}
			}
		}
		stats, err := Rebalance(c, st, 42, 3)
		if err != nil {
			return err
		}
		if stats.Total != n {
			return fmt.Errorf("rank %d: stats.Total = %d, want %d", c.Rank(), stats.Total, n)
		}
		if c.Rank() == 0 && stats.Received != 0 {
			return fmt.Errorf("rank 0 received %d samples while holding everything", stats.Received)
		}
		if c.Rank() != 0 && stats.Sent != 0 {
			return fmt.Errorf("rank %d sent %d samples from an empty store", c.Rank(), stats.Sent)
		}
		finals[c.Rank()] = st.IDs()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertConservedBalanced(t, finals, n)
}

// TestRebalanceDeterministicAndIdempotent: the target partition is a pure
// function of (survivor set, seed, epoch), so a second rebalance at the same
// coordinates moves nothing.
func TestRebalanceIdempotent(t *testing.T) {
	const n, m = 24, 3
	err := mpi.Run(m, func(c *mpi.Comm) error {
		st := store.NewLocal(0)
		// Arbitrary initial spread: round-robin.
		for id := 0; id < n; id++ {
			if id%m == c.Rank() {
				if err := st.Put(rebalanceSample(id)); err != nil {
					return err
				}
			}
		}
		if _, err := Rebalance(c, st, 7, 1); err != nil {
			return err
		}
		after := st.IDs()
		stats, err := Rebalance(c, st, 7, 1)
		if err != nil {
			return err
		}
		if stats.Sent != 0 || stats.Received != 0 {
			return fmt.Errorf("rank %d: second rebalance moved sent=%d recv=%d", c.Rank(), stats.Sent, stats.Received)
		}
		if !equalIntsRB(after, st.IDs()) {
			return fmt.Errorf("rank %d: idempotent rebalance changed the store", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceDegradedGroup: a shrunken group (dead rank excluded, its
// samples lost) rebalances what survives over the members, joiner included.
func TestRebalanceDegradedGroup(t *testing.T) {
	const n = 40 // ids 0..39; rank 1's initial quarter (10..19) is "lost"
	w := mpi.NewWorld(5)
	group := []int{0, 2, 3, 4} // rank 1 dead, rank 4 is a joiner with nothing
	finals := make([][]int, 5)
	errs := make([]error, 5)
	var wg sync.WaitGroup
	for _, r := range group {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			if r != 4 {
				if err := c.Shrink([]int{0, 2, 3}); err != nil {
					errs[r] = err
					return
				}
			}
			if err := c.Grow(5, group); err != nil {
				errs[r] = err
				return
			}
			st := store.NewLocal(0)
			// Survivors hold their original quarters; rank 1's is gone.
			if r != 4 {
				quarter := map[int]int{0: 0, 2: 20, 3: 30}[r]
				for id := quarter; id < quarter+10; id++ {
					if err := st.Put(rebalanceSample(id)); err != nil {
						errs[r] = err
						return
					}
				}
			}
			if _, err := Rebalance(c, st, 99, 5); err != nil {
				errs[r] = err
				return
			}
			finals[r] = st.IDs()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var held [][]int
	for _, r := range group {
		held = append(held, finals[r])
	}
	// 30 surviving samples over 4 members: shares of 8,8,7,7.
	assertConservedBalanced(t, held, 30)
	union := map[int]bool{}
	for _, ids := range held {
		for _, id := range ids {
			union[id] = true
		}
	}
	for id := 10; id < 20; id++ {
		if union[id] {
			t.Fatalf("lost sample %d reappeared after rebalance", id)
		}
	}
	_ = n
}

// assertConservedBalanced checks that the per-rank ID sets are disjoint,
// cover exactly total samples, and differ in size by at most one.
func assertConservedBalanced(t *testing.T, held [][]int, total int) {
	t.Helper()
	seen := map[int]int{}
	minLen, maxLen := -1, -1
	var all []int
	for r, ids := range held {
		if minLen == -1 || len(ids) < minLen {
			minLen = len(ids)
		}
		if len(ids) > maxLen {
			maxLen = len(ids)
		}
		for _, id := range ids {
			if prev, dup := seen[id]; dup {
				t.Fatalf("sample %d held by entries %d and %d", id, prev, r)
			}
			seen[id] = r
			all = append(all, id)
		}
	}
	if len(all) != total {
		t.Fatalf("%d samples held, want %d", len(all), total)
	}
	if maxLen-minLen > 1 {
		t.Fatalf("imbalanced shares: min %d, max %d", minLen, maxLen)
	}
	sort.Ints(all)
}

func equalIntsRB(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRebalanceUnderDeath: a member dies inside the rebalance — {a holder of
// samples the others wait for, a pure receiver that never drains} × {inproc,
// TCP with distrun's heartbeat settings} — after taking part in the gather,
// so every survivor is past planning. Each survivor's Rebalance returns an
// error carrying the victim's PeerError within the detection bound, with its
// store exactly as before the call; and because nothing was applied anywhere,
// the survivors re-form (Shrink, next generation) and rebalance again at the
// SAME epoch: the retry conserves what they held and cannot match the frames
// the abandoned attempt left in their mailboxes (the generation salts the
// tag).
func TestRebalanceUnderDeath(t *testing.T) {
	const n, m, seed, epoch = 60, 4, 77, 3
	backends := []struct {
		b      transporttest.Backend
		detect time.Duration // kill → return bound per survivor
	}{
		{transporttest.InprocWrapped("inproc", func(_ int, c transport.Conn) transport.Conn { return c }), 2 * time.Second},
		{transporttest.TCPWrapped("tcp", nil, func(_ int, cfg *tcp.Config) {
			cfg.HeartbeatInterval = 500 * time.Millisecond
		}), 10 * time.Second},
	}
	// Ranks 0..2 hold a third each; rank 3 holds nothing, like a joiner.
	roles := []struct {
		name   string
		victim int
	}{
		{"holder-dies-before-sending", 0},
		{"receiver-dies-before-draining", 3},
	}
	for _, be := range backends {
		for _, role := range roles {
			be, victim := be, role.victim
			t.Run(be.b.Name()+"/"+role.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				stores := make([]*store.Local, m)
				for r := range stores {
					stores[r] = store.NewLocal(0)
				}
				for id := 0; id < n; id++ {
					if err := stores[id%3].Put(rebalanceSample(id)); err != nil {
						t.Fatal(err)
					}
				}
				comms, cleanup, err := be.b.Open(m)
				if err != nil {
					t.Fatal(err)
				}
				var live []int
				survivorsHeld := 0
				for r := 0; r < m; r++ {
					if r != victim {
						live = append(live, r)
						survivorsHeld += stores[r].Len()
					}
				}

				var killedAt atomic.Int64 // unix nanos
				first := make([]error, m) // the abandoned attempt, per survivor
				took := make([]time.Duration, m)
				program := func(c *mpi.Comm) error {
					st := stores[c.Rank()]
					if c.Rank() == victim {
						mpi.AllgatherVarLen(c, st.IDs())
						// Let the survivors' readers take the gather frames off
						// the sockets: a killed endpoint discards what it queued.
						time.Sleep(50 * time.Millisecond)
						killedAt.Store(time.Now().UnixNano())
						killComm(t, c)
						return nil
					}
					idsBefore, usedBefore := fmt.Sprint(st.IDs()), st.Used()
					// Guard: the death may also reach a survivor as the unwind of
					// the gather or of the closing barrier.
					first[c.Rank()] = c.Guard(func() error {
						_, err := Rebalance(c, st, seed, epoch)
						return err
					})
					if at := killedAt.Load(); at != 0 {
						took[c.Rank()] = time.Since(time.Unix(0, at))
					}
					if got := fmt.Sprint(st.IDs()); got != idsBefore || st.Used() != usedBefore {
						return fmt.Errorf("abandoned rebalance changed the store: %d bytes → %d", usedBefore, st.Used())
					}
					// Whether the abandoned attempt left a frame unconsumed in some
					// mailbox is a timing accident; plant one so every run has it.
					for i, r := range live {
						if r == c.Rank() {
							stale := data.EncodeSampleBatch([]data.Sample{rebalanceSample(n + r)})
							c.Send(live[(i+1)%len(live)], RebalanceTag(0, epoch), stale)
						}
					}
					if err := c.Shrink(live); err != nil {
						return err
					}
					c.SetCollSeq(1 << 32)
					stats, err := Rebalance(c, st, seed, epoch)
					if err != nil {
						return fmt.Errorf("retry over the survivors: %w", err)
					}
					if stats.Total != survivorsHeld {
						return fmt.Errorf("retry gathered %d samples, the survivors held %d", stats.Total, survivorsHeld)
					}
					return nil
				}
				errs := make([]error, m)
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
				case <-time.After(3 * be.detect):
					// cleanup closes the communicators, which wakes the stuck ranks.
					cleanup()
					t.Fatalf("ranks still blocked %v after the kill (FailedPeers on rank %d: %v)",
						3*be.detect, live[0], comms[live[0]].FailedPeers())
				}
				cleanup()

				var held [][]int
				for _, r := range live {
					if errs[r] != nil {
						t.Errorf("rank %d: %v", r, errs[r])
					}
					pe, ok := mpi.PeerErrorFrom(first[r])
					if !ok || pe.Rank != victim {
						t.Errorf("rank %d: rebalance returned %v, want an error carrying a PeerError for rank %d", r, first[r], victim)
					}
					if took[r] > be.detect {
						t.Errorf("rank %d returned %v after the kill, want within %v", r, took[r], be.detect)
					}
					held = append(held, stores[r].IDs())
				}
				if errs[victim] != nil {
					t.Errorf("victim: %v", errs[victim])
				}
				if !t.Failed() {
					assertConservedBalanced(t, held, survivorsHeld)
				}
				deadline := time.Now().Add(10 * time.Second)
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

// TestRebalanceJoinFramesTCP: a 4→5 join's rebalance puts at most one sample
// frame per (sender, destination) on the wire — GroupSize−1 per sender —
// however many samples move. The window's frames are what the rank's
// data-kind frame counter grows by beyond the rebalance's two collectives,
// which a calibration round of the same gather and agreement measures.
func TestRebalanceJoinFramesTCP(t *testing.T) {
	const n, members, m, seed = 400, 4, 5, 5
	dataFrames := func(c *mpi.Comm) int64 {
		s := c.Transport().Stats()
		return s.SentByKind[transport.KindData] + s.SentByKind[transport.KindDataZ] + s.SentByKind[transport.KindDataRef]
	}
	err := transporttest.TCP().Run(m, func(c *mpi.Comm) error {
		st := store.NewLocal(0)
		for id := 0; id < n; id++ {
			if id%members == c.Rank() {
				if err := st.Put(rebalanceSample(id)); err != nil {
					return err
				}
			}
		}
		f0 := dataFrames(c)
		mpi.AllgatherVarLen(c, st.IDs())
		if _, _, err := mpi.Agree(c, []int{1}); err != nil {
			return err
		}
		f1 := dataFrames(c)
		stats, err := Rebalance(c, st, seed, 1)
		if err != nil {
			return err
		}
		window := dataFrames(c) - f1 - (f1 - f0)
		if c.Rank() < members && stats.Sent < 5*(m-1) {
			return fmt.Errorf("test underpowered: rank %d moved %d samples", c.Rank(), stats.Sent)
		}
		if window > int64(m-1) {
			return fmt.Errorf("rank %d sent %d sample frames for %d samples, want at most %d (one per destination)", c.Rank(), window, stats.Sent, m-1)
		}
		if got := st.Len(); got != n/m {
			return fmt.Errorf("rank %d holds %d samples after the join, want %d", c.Rank(), got, n/m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
