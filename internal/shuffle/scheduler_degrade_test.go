package shuffle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/store"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

// killComm abruptly removes the rank from its world (fault injection).
func killComm(t *testing.T, c *mpi.Comm) {
	t.Helper()
	k, ok := c.Transport().(transport.Killer)
	if !ok {
		t.Fatalf("transport %T does not implement Killer", c.Transport())
	}
	k.Kill()
}

// TestExpectedSendersInvertsPlans: each plan's per-slot Senders must be the
// exact inverse of the shared-seed destination permutations — the sender
// table the degradation path rebuilds its expectation from.
func TestExpectedSendersInvertsPlans(t *testing.T) {
	const n, seed = 240, 77
	for _, size := range []int{4, 7, 1, 8, 6} {
		for epoch := 0; epoch < 3; epoch++ {
			ids := make([]int, n/size+1)
			for j := range ids {
				ids[j] = j
			}
			plans := make([]ExchangePlan, size)
			for r := range plans {
				var err error
				if plans[r], err = PlanExchange(r, size, ids, 0.5, n, seed, epoch); err != nil {
					t.Fatal(err)
				}
			}
			for d, p := range plans {
				if len(p.Senders) != p.Slots() {
					t.Fatalf("size=%d epoch=%d rank %d: %d senders for %d slots", size, epoch, d, len(p.Senders), p.Slots())
				}
				for i, got := range p.Senders {
					// Brute-force: the unique rank whose slot-i destination is d.
					want := -1
					for s := 0; s < size; s++ {
						if plans[s].Dests[i] == d {
							want = s
							break
						}
					}
					if got != want {
						t.Fatalf("size=%d epoch=%d: rank %d slot %d sender %d, want %d", size, epoch, d, i, got, want)
					}
				}
			}
		}
	}
}

// survivorConservation asserts that every sample a survivor held before the
// run is present on exactly one survivor after it, and that no sample is
// duplicated across survivors. Samples that lived only on the dead rank may
// be lost (they died with it) but must never be duplicated.
func survivorConservation(t *testing.T, stores []*store.Local, dead int, heldBefore map[int]bool) {
	t.Helper()
	seen := map[int]int{}
	for r, st := range stores {
		if r == dead {
			continue
		}
		for _, id := range st.IDs() {
			seen[id]++
			if seen[id] > 1 {
				t.Fatalf("sample %d present on two survivors", id)
			}
		}
	}
	for id := range heldBefore {
		if seen[id] != 1 {
			t.Fatalf("survivor-held sample %d lost (count %d)", id, seen[id])
		}
	}
}

// TestDegradeKillBeforeEpoch: the dead rank is known before the exchange
// starts; survivors must complete the epoch with exactly the degraded
// expectation, retain the slots aimed at the dead rank, and report
// EffectiveQ < Q.
func TestDegradeKillBeforeEpoch(t *testing.T) {
	const n, m, q, seed, deadRank = 160, 4, 0.5, 99, 3
	stores, _ := mkStores(t, n, m, seed, 0)

	heldBefore := map[int]bool{}
	for r, st := range stores {
		if r == deadRank {
			continue
		}
		for _, id := range st.IDs() {
			heldBefore[id] = true
		}
	}
	initialLen := make([]int, m)
	for r, st := range stores {
		initialLen[r] = st.Len()
	}

	type report struct {
		degSend, degRecv int
		effQ             float64
		slots            int
		peak             int64
	}
	reports := make([]report, m)

	err := mpi.Run(m, func(c *mpi.Comm) error {
		if c.Rank() == deadRank {
			killComm(t, c)
			return nil
		}
		for len(c.FailedPeers()) == 0 {
			time.Sleep(time.Millisecond)
		}
		sched, err := NewScheduler(c, stores[c.Rank()], q, n, seed, Options{Degrade: true})
		if err != nil {
			return err
		}
		for e := 0; e < 3; e++ {
			if err := sched.Scheduling(e); err != nil {
				return err
			}
			if err := sched.Synchronize(); err != nil {
				return err
			}
			if e == 0 {
				ds, dr := sched.DegradedSlots()
				reports[c.Rank()] = report{ds, dr, sched.EffectiveQ(), sched.Slots(), 0}
			}
			if err := sched.CleanLocalStorage(); err != nil {
				return err
			}
		}
		reports[c.Rank()].peak = stores[c.Rank()].Peak()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for r := 0; r < m; r++ {
		if r == deadRank {
			continue
		}
		rep := reports[r]
		// Exact expected degradation from the shared-seed permutations:
		// inbound slots whose sender is the dead rank, and outbound slots
		// whose destination is the dead rank (= slots where this rank is
		// the dead rank's expected sender).
		senders := func(rank int) []int {
			p, err := PlanExchange(rank, m, make([]int, n), q, n, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			return p.Senders
		}
		wantRecv := 0
		for _, s := range senders(r) {
			if s == deadRank {
				wantRecv++
			}
		}
		wantSend := 0
		for _, s := range senders(deadRank) {
			if s == r {
				wantSend++
			}
		}
		if rep.degRecv != wantRecv {
			t.Errorf("rank %d: DegradedSlots recv = %d, want %d", r, rep.degRecv, wantRecv)
		}
		if rep.degSend != wantSend {
			t.Errorf("rank %d: DegradedSlots send = %d, want %d", r, rep.degSend, wantSend)
		}
		if rep.degSend+rep.degRecv > 0 && rep.effQ >= q {
			t.Errorf("rank %d: EffectiveQ = %v, want < %v", r, rep.effQ, q)
		}
		// Peak storage stays within the (1+Q)·N/M discipline: at most the
		// initial residency plus one full exchange's worth of receives
		// (Peak counts bytes; mkStores uses 10-byte samples).
		const sampleBytes = 10
		if rep.peak > int64((initialLen[r]+rep.slots)*sampleBytes) {
			t.Errorf("rank %d: peak %d bytes exceeds (initial %d + slots %d) samples", r, rep.peak, initialLen[r], rep.slots)
		}
	}
	survivorConservation(t, stores, deadRank, heldBefore)
}

// TestEffectiveQScalesTheOpenedPlan: EffectiveQ is the fraction of the plan
// Open was handed, not the q the Scheduler was built with — before any
// death, and scaled by the surviving slots after one. Before the first Open
// it reads the constructor's q.
func TestEffectiveQScalesTheOpenedPlan(t *testing.T) {
	const n, m, seed, deadRank = 160, 4, 31, 1
	const built, drawn = 1.0, 0.5
	stores, _ := mkStores(t, n, m, seed, 0)
	err := mpi.Run(m, func(c *mpi.Comm) error {
		if c.Rank() == deadRank {
			killComm(t, c)
			return nil
		}
		for len(c.FailedPeers()) == 0 {
			time.Sleep(time.Millisecond)
		}
		sched, err := NewScheduler(c, stores[c.Rank()], built, n, seed, Options{Degrade: true})
		if err != nil {
			return err
		}
		if got := sched.EffectiveQ(); got != built {
			return fmt.Errorf("rank %d: EffectiveQ before the first Open = %v, want the constructor's %v", c.Rank(), got, built)
		}
		plan, err := PlanExchange(c.Rank(), m, stores[c.Rank()].IDs(), drawn, n, seed, 0)
		if err != nil {
			return err
		}
		if err := sched.Open(plan, ExchangeTag(0)); err != nil {
			return err
		}
		if got := sched.EffectiveQ(); got != drawn {
			return fmt.Errorf("rank %d: EffectiveQ of the opened plan = %v, want the plan's %v", c.Rank(), got, drawn)
		}
		if err := sched.Synchronize(); err != nil {
			return err
		}
		ds, dr := sched.DegradedSlots()
		if ds+dr == 0 {
			return fmt.Errorf("rank %d: the death of rank %d degraded no slot", c.Rank(), deadRank)
		}
		k := plan.Slots()
		if got, want := sched.EffectiveQ(), drawn*float64(2*k-ds-dr)/float64(2*k); got != want {
			return fmt.Errorf("rank %d: degraded EffectiveQ = %v, want %v (%d+%d of 2·%d slots lost)", c.Rank(), got, want, ds, dr, k)
		}
		return sched.CleanLocalStorage()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDegradeKillMidEpoch: the rank dies after shipping part of its epoch
// traffic. Survivors absorb the death mid-drain, accept the straggler
// samples that landed before it, and complete this and subsequent epochs
// without losing or duplicating any survivor-held sample.
func TestDegradeKillMidEpoch(t *testing.T) {
	const n, m, q, seed, deadRank = 200, 4, 0.6, 1234, 2
	stores, _ := mkStores(t, n, m, seed, 0)

	heldBefore := map[int]bool{}
	for r, st := range stores {
		if r == deadRank {
			continue
		}
		for _, id := range st.IDs() {
			heldBefore[id] = true
		}
	}

	var sawDegradation atomic.Bool
	err := mpi.Run(m, func(c *mpi.Comm) error {
		sched, err := NewScheduler(c, stores[c.Rank()], q, n, seed, Options{Degrade: true})
		if err != nil {
			return err
		}
		if c.Rank() == deadRank {
			// Ship a few slots, then die abruptly mid-Communicate. The
			// count is kept below any survivor's inbound expectation from
			// this rank, so every survivor is guaranteed to block in
			// Synchronize and absorb the death before its epoch commits.
			if err := sched.Scheduling(0); err != nil {
				return err
			}
			if _, err := sched.Communicate(3); err != nil {
				return err
			}
			killComm(t, c)
			return nil
		}
		for e := 0; e < 3; e++ {
			if err := sched.Scheduling(e); err != nil {
				return err
			}
			// Chunked posting so the death interleaves with live traffic.
			for posted := 0; posted < sched.Slots(); posted += 7 {
				if _, err := sched.Communicate(7); err != nil {
					return err
				}
			}
			if err := sched.Synchronize(); err != nil {
				return err
			}
			ds, dr := sched.DegradedSlots()
			if ds+dr > 0 {
				sawDegradation.Store(true)
				if sched.EffectiveQ() >= q {
					return fmt.Errorf("rank %d epoch %d: EffectiveQ %v not reduced", c.Rank(), e, sched.EffectiveQ())
				}
			}
			if err := sched.CleanLocalStorage(); err != nil {
				return err
			}
		}
		if got := sched.DeadRanks(); len(got) != 1 || got[0] != deadRank {
			return fmt.Errorf("rank %d: DeadRanks = %v, want [%d]", c.Rank(), got, deadRank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawDegradation.Load() {
		t.Fatal("no rank observed any degraded slots; the kill did not bite")
	}
	survivorConservation(t, stores, deadRank, heldBefore)
}

// TestSchedulerResetAfterFailedEpoch: a failed (abandoned) epoch must leave
// the scheduler re-schedulable via Reset, with the local stores untouched —
// the cleanly-poisoned contract.
func TestSchedulerResetAfterFailedEpoch(t *testing.T) {
	const n, m, q, seed = 80, 2, 0.5, 5
	stores, _ := mkStores(t, n, m, seed, 0)
	before := make([][]int, m)
	for r, st := range stores {
		before[r] = append([]int(nil), st.IDs()...)
	}
	err := mpi.Run(m, func(c *mpi.Comm) error {
		sched, err := NewScheduler(c, stores[c.Rank()], q, n, seed)
		if err != nil {
			return err
		}
		// Start epoch 0 and post part of it, then abandon: the epoch's
		// frames rot in per-epoch tag space and nothing was deleted.
		if err := sched.Scheduling(0); err != nil {
			return err
		}
		if _, err := sched.Communicate(3); err != nil {
			return err
		}
		if err := sched.Scheduling(1); err == nil {
			return fmt.Errorf("Scheduling(1) succeeded over an unfinished epoch")
		}
		sched.Reset()
		// After Reset the scheduler is idle again: a full epoch runs clean.
		if err := sched.Scheduling(1); err != nil {
			return fmt.Errorf("Scheduling after Reset: %w", err)
		}
		if err := sched.Synchronize(); err != nil {
			return err
		}
		return sched.CleanLocalStorage()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Conservation across the abandoned epoch + the clean one: the union of
	// both stores is still the whole dataset, no duplicates. (Counts can
	// shift between ranks only via the clean epoch's balanced exchange, so
	// per-rank counts are preserved.)
	perWorker := []int{len(before[0]), len(before[1])}
	checkConservation(t, stores, n, perWorker)
}

// TestPeerFailurePolicy is the policy matrix: {abort, degrade} × the moment
// the victim dies × {inproc, TCP with distrun's heartbeat settings}. Whatever
// the moment, the death reaches the scheduler as one *transport.PeerError and
// the policy is its one decision about it:
//
//   - abort: every survivor's epoch returns an error that carries the peer
//     error and names the victim (mpi.PeerErrorFrom), promptly, with its store
//     untouched — including the survivor that had posted all its sends and was
//     blocked in Synchronize waiting for frames the victim never sent;
//   - degrade: the epoch and the one after it complete over the survivors, and
//     no survivor-held sample is lost or duplicated.
//
// Ranks run on per-rank communicators (no world abort), so each survivor has
// to see the death by itself, as separate processes would.
func TestPeerFailurePolicy(t *testing.T) {
	const n, m, q, seed, victim = 160, 4, 0.5, 4242, 2
	const (
		beforeEpoch      = "before-epoch"      // dead before anyone schedules
		afterCommunicate = "after-communicate" // survivors posted every send; the victim sent nothing
		midSynchronize   = "mid-synchronize"   // the victim sent a few slots, then died under the survivors' drain
	)
	backends := []struct {
		b transporttest.Backend
		// detect bounds how long after the kill a survivor may take to return
		// under abort: immediate on inproc; heartbeat interval plus the redial
		// budget toward the closed listener, and slack for a loaded machine, on
		// TCP.
		detect time.Duration
	}{
		{transporttest.InprocWrapped("inproc", func(_ int, c transport.Conn) transport.Conn { return c }), 2 * time.Second},
		{transporttest.TCPWrapped("tcp", nil, func(_ int, cfg *tcp.Config) {
			cfg.HeartbeatInterval = 500 * time.Millisecond
		}), 10 * time.Second},
	}
	for _, be := range backends {
		for _, degrade := range []bool{false, true} {
			for _, moment := range []string{beforeEpoch, afterCommunicate, midSynchronize} {
				be, degrade, moment := be, degrade, moment
				policy := "abort"
				if degrade {
					policy = "degrade"
				}
				t.Run(be.b.Name()+"/"+policy+"/"+moment, func(t *testing.T) {
					t.Parallel()
					stores, _ := mkStores(t, n, m, seed, 0)
					heldBefore := map[int]bool{}
					before := make([][]int, m)
					for r, st := range stores {
						before[r] = append([]int(nil), st.IDs()...)
						if r != victim {
							for _, id := range before[r] {
								heldBefore[id] = true
							}
						}
					}
					comms, cleanup, err := be.b.Open(m)
					if err != nil {
						t.Fatal(err)
					}
					defer cleanup()

					var posted sync.WaitGroup // survivors that reached the row's moment
					posted.Add(m - 1)
					var killedAt atomic.Int64 // unix nanos
					kill := func(c *mpi.Comm) {
						killedAt.Store(time.Now().UnixNano())
						killComm(t, c)
					}
					errs := make([]error, m)
					took := make([]time.Duration, m) // kill → return, per survivor
					program := func(c *mpi.Comm) error {
						sched, err := NewScheduler(c, stores[c.Rank()], q, n, seed, Options{Degrade: degrade})
						if err != nil {
							return err
						}
						if c.Rank() == victim {
							switch moment {
							case afterCommunicate:
								posted.Wait()
							case midSynchronize:
								if err := sched.Scheduling(0); err != nil {
									return err
								}
								if _, err := sched.Communicate(3); err != nil {
									return err
								}
								posted.Wait()
								time.Sleep(20 * time.Millisecond) // let the survivors block in their drain
							}
							kill(c)
							return nil
						}
						var once sync.Once
						reached := func() { once.Do(posted.Done) }
						defer reached() // a survivor failing early must not strand the victim
						for e := 0; e < 2; e++ {
							if err := sched.Scheduling(e); err != nil {
								return err
							}
							if e == 0 && moment == afterCommunicate {
								if _, err := sched.Communicate(-1); err != nil {
									return err
								}
							}
							reached()
							if err := sched.Synchronize(); err != nil {
								return err
							}
							if err := sched.CleanLocalStorage(); err != nil {
								return err
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
							if at := killedAt.Load(); at != 0 {
								took[r] = time.Since(time.Unix(0, at))
							}
						}(r)
					}
					done := make(chan struct{})
					go func() { wg.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(3 * be.detect):
						// cleanup closes the communicators, which wakes the stuck ranks.
						t.Fatalf("ranks still blocked %v after the failure was reported to them (FailedPeers on rank 0: %v)",
							3*be.detect, comms[0].FailedPeers())
					}

					for r := range comms {
						if r == victim {
							if errs[r] != nil {
								t.Errorf("victim: %v", errs[r])
							}
							continue
						}
						if degrade {
							if errs[r] != nil {
								t.Errorf("rank %d: degraded epochs failed: %v", r, errs[r])
							}
							continue
						}
						pe, ok := mpi.PeerErrorFrom(errs[r])
						if !ok || pe.Rank != victim {
							t.Errorf("rank %d returned %v, want an error carrying a PeerError for rank %d", r, errs[r], victim)
						}
						if took[r] > be.detect {
							t.Errorf("rank %d returned %v after the kill, want within %v", r, took[r], be.detect)
						}
						if got := stores[r].IDs(); fmt.Sprint(got) != fmt.Sprint(before[r]) {
							t.Errorf("rank %d: aborted epoch changed the local store", r)
						}
					}
					if degrade {
						survivorConservation(t, stores, victim, heldBefore)
					}
				})
			}
		}
	}
}
