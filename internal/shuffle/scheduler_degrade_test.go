package shuffle

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
// exact inverse of the shared-seed destination permutations — the table
// every rank reads whom it waits for from.
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

// The degrade contract of the exchange (DESIGN.md §10): a death unwinds the
// window's sends and drain like any collective, Settle's agreement resets the
// window on every survivor (store untouched, EffectiveQ 0), the survivors
// re-form — next generation, one agreement on the dead set, Shrink — and
// later windows, planned over the live group, commit at the configured Q.

// tracker records, per rank, the step it is in, so a deadline failure names
// every rank and the wait it is stuck in instead of hanging.
type tracker []atomic.Value

func newTracker(m int) tracker { return make(tracker, m) }

func (tr tracker) at(rank int, step string) { tr[rank].Store(step) }

func (tr tracker) String() string {
	var b strings.Builder
	for r := range tr {
		step, _ := tr[r].Load().(string)
		fmt.Fprintf(&b, "\n  rank %d: %s", r, step)
	}
	return b.String()
}

// runWorld runs program on every rank of an in-process world, aborting the
// world when a rank fails (mpi.Run's rule). Past the deadline it aborts the
// world and fails the test naming each rank's step.
func runWorld(t *testing.T, m int, program func(c *mpi.Comm, tr tracker) error) error {
	t.Helper()
	w := mpi.NewWorld(m)
	tr := newTracker(m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for r := 0; r < m; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = mpi.Execute(w.Comm(r), func(c *mpi.Comm) error { return program(c, tr) })
			if errs[r] != nil {
				w.Abort()
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		w.Abort()
		t.Fatalf("ranks still running after 60s:%s", tr)
	}
	return errors.Join(errs...)
}

// reformGroup is the re-formation a trainer runs after a reset window,
// reduced to what the exchange needs: open the next generation (so no
// survivor's agreement pairs with another's settle round), agree on the
// dead set, shrink to the rest.
func reformGroup(c *mpi.Comm) error {
	if err := c.EnterGeneration(c.Generation() + 1); err != nil {
		return err
	}
	_, dead, err := mpi.Agree(c, []int{0})
	if err != nil {
		return err
	}
	return c.Shrink(slices.DeleteFunc(c.GroupRanks(), func(r int) bool { return slices.Contains(dead, r) }))
}

// openGroupEpoch opens epoch's flat PLS exchange drawn over c's collective
// group as a world of GroupSize·(smallest store) samples — the trainer's
// plan for a shrunk world — with group indices mapped to world ranks.
func openGroupEpoch(c *mpi.Comm, sched *Scheduler, st *store.Local, q float64, seed uint64, epoch int) error {
	minStore := []int{st.Len()}
	mpi.Allreduce(c, minStore, mpi.OpMin)
	plan, err := PlanExchange(c.GroupRank(), c.GroupSize(), st.IDs(), q, c.GroupSize()*minStore[0], seed, epoch)
	if err != nil {
		return err
	}
	group := c.GroupRanks()
	for i := range plan.Dests {
		plan.Dests[i], plan.Senders[i] = group[plan.Dests[i]], group[plan.Senders[i]]
	}
	return sched.Open(plan, ExchangeTag(epoch))
}

// wantReset checks a settled window that a death must have reset: the error
// names the victim, and the window realized Q = 0.
func wantReset(c *mpi.Comm, sched *Scheduler, err error, victim int) error {
	if pe, ok := mpi.PeerErrorFrom(err); !ok || pe.Rank != victim {
		return fmt.Errorf("rank %d: settling with rank %d dead returned %v, want a reset naming it", c.Rank(), victim, err)
	}
	if q := sched.EffectiveQ(); q != 0 {
		return fmt.Errorf("rank %d: EffectiveQ of a reset window = %v, want 0", c.Rank(), q)
	}
	return nil
}

// TestDegradeKillBeforeEpoch: the victim is dead before the exchange starts.
// A window whose plan still names it cannot commit: it resets on every
// survivor with the stores untouched. After the re-formation two windows
// planned over the live group commit at the configured Q, no survivor-held
// sample is lost or duplicated, and occupancy stays within (1+Q)·N/M.
func TestDegradeKillBeforeEpoch(t *testing.T) {
	const n, m, q, seed, deadRank = 160, 4, 0.5, 99, 3
	stores, _ := mkStores(t, n, m, seed, 0)

	heldBefore := map[int]bool{}
	before := make([][]int, m)
	for r, st := range stores {
		before[r] = st.IDs()
		if r != deadRank {
			for _, id := range before[r] {
				heldBefore[id] = true
			}
		}
	}
	slots := make([]int, m)

	err := runWorld(t, m, func(c *mpi.Comm, tr tracker) error {
		r := c.Rank()
		if r == deadRank {
			killComm(t, c)
			return nil
		}
		for len(c.FailedPeers()) == 0 {
			time.Sleep(time.Millisecond)
		}
		sched, err := NewScheduler(c, stores[r], q, n, seed)
		if err != nil {
			return err
		}
		if err := sched.Scheduling(0); err != nil {
			return err
		}
		tr.at(r, "epoch 0 Settle")
		if err := wantReset(c, sched, sched.Settle(), deadRank); err != nil {
			return err
		}
		if got := stores[r].IDs(); !slices.Equal(got, before[r]) {
			return fmt.Errorf("rank %d: the reset window changed the store", r)
		}
		tr.at(r, "re-formation")
		if err := reformGroup(c); err != nil {
			return err
		}
		for e := 1; e < 3; e++ {
			tr.at(r, fmt.Sprintf("epoch %d", e))
			if err := openGroupEpoch(c, sched, stores[r], q, seed, e); err != nil {
				return err
			}
			slots[r] = max(slots[r], sched.Slots())
			if err := sched.Settle(); err != nil {
				return err
			}
			if got := sched.EffectiveQ(); got != q {
				return fmt.Errorf("rank %d epoch %d: EffectiveQ = %v, want %v", r, e, got, q)
			}
		}
		tr.at(r, "done")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Peak storage stays within the (1+Q)·N/M discipline: at most the
	// initial residency plus one window's receives (mkStores uses 10-byte
	// samples).
	const sampleBytes = 10
	for r, st := range stores {
		if r != deadRank && st.Peak() > int64((len(before[r])+slots[r])*sampleBytes) {
			t.Errorf("rank %d: peak %d bytes exceeds (initial %d + slots %d) samples", r, st.Peak(), len(before[r]), slots[r])
		}
	}
	survivorConservation(t, stores, deadRank, heldBefore)
}

// TestEffectiveQScalesTheOpenedPlan: EffectiveQ is the fraction of the plan
// Open was handed, not the q the Scheduler was built with, and 0 once a
// death reset the window. Before the first Open it reads the constructor's q.
func TestEffectiveQScalesTheOpenedPlan(t *testing.T) {
	const n, m, seed, deadRank = 160, 4, 31, 1
	const built, drawn = 1.0, 0.5
	stores, _ := mkStores(t, n, m, seed, 0)
	err := runWorld(t, m, func(c *mpi.Comm, tr tracker) error {
		if c.Rank() == deadRank {
			killComm(t, c)
			return nil
		}
		for len(c.FailedPeers()) == 0 {
			time.Sleep(time.Millisecond)
		}
		sched, err := NewScheduler(c, stores[c.Rank()], built, n, seed)
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
		tr.at(c.Rank(), "epoch 0 Settle")
		if err := wantReset(c, sched, sched.Settle(), deadRank); err != nil {
			return err
		}
		tr.at(c.Rank(), "re-formation")
		if err := reformGroup(c); err != nil {
			return err
		}
		tr.at(c.Rank(), "epoch 1")
		if err := openGroupEpoch(c, sched, stores[c.Rank()], drawn, seed, 1); err != nil {
			return err
		}
		if err := sched.Settle(); err != nil {
			return err
		}
		if got := sched.EffectiveQ(); got != drawn {
			return fmt.Errorf("rank %d: EffectiveQ of the committed window = %v, want %v", c.Rank(), got, drawn)
		}
		tr.at(c.Rank(), "done")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDegradeKillMidEpoch: the victim dies after shipping part of its
// window. Each survivor's sends or drain unwind; whichever it is in, the
// window resets on every survivor (no survivor committed while another
// reset), the survivors re-form, and two more windows over the live group
// commit without losing or duplicating any survivor-held sample.
func TestDegradeKillMidEpoch(t *testing.T) {
	const n, m, q, seed, deadRank = 200, 4, 0.6, 1234, 2
	stores, _ := mkStores(t, n, m, seed, 0)

	heldBefore := map[int]bool{}
	before := make([][]int, m)
	for r, st := range stores {
		before[r] = st.IDs()
		if r != deadRank {
			for _, id := range before[r] {
				heldBefore[id] = true
			}
		}
	}

	err := runWorld(t, m, func(c *mpi.Comm, tr tracker) error {
		r := c.Rank()
		sched, err := NewScheduler(c, stores[r], q, n, seed)
		if err != nil {
			return err
		}
		if err := sched.Scheduling(0); err != nil {
			return err
		}
		if r == deadRank {
			// Ship a few slots, then die abruptly mid-Communicate.
			if _, err := sched.Communicate(3); err != nil {
				return err
			}
			killComm(t, c)
			return nil
		}
		// Chunked posting so the death interleaves with live traffic. A send
		// the death unwinds leaves the window open: the rank resets it and
		// goes straight to the re-formation, as the trainer's recovery does,
		// while the others settle.
		tr.at(r, "epoch 0 Communicate")
		err = c.Guard(func() error {
			for posted := 0; posted < sched.Slots(); posted += 7 {
				if _, err := sched.Communicate(7); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			tr.at(r, "epoch 0 Settle")
			err = sched.Settle()
		} else {
			sched.Reset()
		}
		if err := wantReset(c, sched, err, deadRank); err != nil {
			return err
		}
		if got := stores[r].IDs(); !slices.Equal(got, before[r]) {
			return fmt.Errorf("rank %d: the reset window changed the store", r)
		}
		tr.at(r, "re-formation")
		if err := reformGroup(c); err != nil {
			return err
		}
		for e := 1; e < 3; e++ {
			tr.at(r, fmt.Sprintf("epoch %d", e))
			if err := openGroupEpoch(c, sched, stores[r], q, seed, e); err != nil {
				return err
			}
			if err := sched.Settle(); err != nil {
				return err
			}
		}
		tr.at(r, "done")
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
// the moment, the death unwinds the window's sends or drain with one
// *transport.PeerError; the policy decides what follows:
//
//   - abort (Synchronize, CleanLocalStorage): every survivor's epoch returns
//     an error that carries the peer error and names the victim
//     (mpi.PeerErrorFrom), promptly, with its store untouched — including the
//     survivor that had posted all its sends and was blocked in Synchronize
//     waiting for frames the victim never sent;
//   - degrade (Settle): the epoch's window resets on every survivor, store
//     untouched; the survivors re-form, the next window over the live group
//     commits, and no survivor-held sample is lost or duplicated.
//
// Ranks run on per-rank communicators (no world abort), so each survivor has
// to see the death by itself, as separate processes would; a rank whose
// program fails has its endpoint killed, as a process exit would.
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
					tr := newTracker(m)
					program := func(c *mpi.Comm) error {
						r := c.Rank()
						sched, err := NewScheduler(c, stores[r], q, n, seed)
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
						if err := sched.Scheduling(0); err != nil {
							return err
						}
						if moment == afterCommunicate {
							if _, err := sched.Communicate(-1); err != nil {
								return err
							}
						}
						reached()
						if !degrade {
							tr.at(r, "epoch 0 Synchronize")
							if err := sched.Synchronize(); err != nil {
								return err
							}
							return sched.CleanLocalStorage()
						}
						tr.at(r, "epoch 0 Settle")
						if err := wantReset(c, sched, sched.Settle(), victim); err != nil {
							return err
						}
						if got := stores[r].IDs(); !slices.Equal(got, before[r]) {
							return fmt.Errorf("rank %d: the reset window changed the store", r)
						}
						tr.at(r, "re-formation")
						if err := reformGroup(c); err != nil {
							return err
						}
						tr.at(r, "epoch 1 Settle")
						if err := openGroupEpoch(c, sched, stores[r], q, seed, 1); err != nil {
							return err
						}
						if err := sched.Settle(); err != nil {
							return err
						}
						tr.at(r, "done")
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
							if errs[r] != nil && degrade {
								// A failed rank exits: its peers must see it die
								// rather than wait for it in an agreement.
								comms[r].Transport().(transport.Killer).Kill()
							}
						}(r)
					}
					done := make(chan struct{})
					go func() { wg.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(3 * be.detect):
						// cleanup closes the communicators, which wakes the stuck ranks.
						t.Fatalf("ranks still blocked %v after the kill (FailedPeers on rank 0: %v):%s",
							3*be.detect, comms[0].FailedPeers(), tr)
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
								t.Errorf("rank %d: %v", r, errs[r])
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
