package train

// Trainer-level fault tolerance (DESIGN.md §10): a peer dies mid-epoch and
// the -on-peer-fail policy decides the outcome. In degrade mode the
// disrupted epoch's exchange resets (a Q = 0 epoch) and the survivors finish
// every later epoch over a shrunken collective group at the configured Q; in
// abort mode every rank fails with the typed peer error so a launcher can
// report it and exit non-zero.

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/trace"
	"plshuffle/internal/transport"
)

// errKilled is the sentinel the victim's iteration hook returns after
// killing its own transport — the in-process stand-in for a process death.
var errKilled = errors.New("victim killed by test hook")

// runWorldWithVictim trains a world in which victim kills its transport at
// (killEpoch, killIter). It returns the survivors' rank results and the
// survivors' per-rank errors.
func runWorldWithVictim(t *testing.T, cfg Config, workers, victim, killEpoch, killIter int) ([]*RankResult, []error) {
	t.Helper()
	rrs := make([]*RankResult, workers)
	errs := make([]error, workers)
	done := make(chan error, 1)
	go func() {
		done <- mpi.Run(workers, func(c *mpi.Comm) error {
			rankCfg := cfg
			if c.Rank() == victim {
				rankCfg.testIterHook = func(epoch, iter int) error {
					if epoch == killEpoch && iter == killIter {
						c.Transport().(transport.Killer).Kill()
						return errKilled
					}
					return nil
				}
			}
			rr, err := RunRank(c, rankCfg)
			if c.Rank() == victim {
				if err == nil || !errors.Is(err, errKilled) {
					return fmt.Errorf("victim rank %d: want the kill sentinel, got %v", victim, err)
				}
				return nil // the "process" died; its error is not the world's
			}
			if err != nil {
				t.Logf("survivor rank %d error: %v", c.Rank(), err)
			}
			rrs[c.Rank()], errs[c.Rank()] = rr, err
			if cfg.OnPeerFail == "degrade" {
				return err // a survivor failure aborts the world (no hang)
			}
			return nil // abort policy: errors are the expected outcome

		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("world error: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("world deadlocked after peer death")
	}
	return rrs, errs
}

func TestDegradeModeSurvivesPeerDeath(t *testing.T) {
	const (
		workers   = 4
		victim    = 2
		q         = 0.5
		epochs    = 4
		killEpoch = 1
	)
	ds := testDataset(t, 512, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = epochs
	cfg.OnPeerFail = "degrade"
	rec := trace.NewRecorder()
	cfg.Trace = rec

	rrs, errs := runWorldWithVictim(t, cfg, workers, victim, killEpoch, 1)

	var survivors []*RankResult
	for r := 0; r < workers; r++ {
		if r == victim {
			continue
		}
		if errs[r] != nil {
			t.Fatalf("survivor rank %d failed: %v", r, errs[r])
		}
		if rrs[r] == nil {
			t.Fatalf("survivor rank %d produced no result", r)
		}
		survivors = append(survivors, rrs[r])
	}

	for i, rr := range survivors {
		if len(rr.Epochs) != epochs {
			t.Fatalf("survivor %d recorded %d epochs, want %d", i, len(rr.Epochs), epochs)
		}
		// The kill lands in epoch killEpoch's exchange window, which the
		// victim never settles: it resets on every survivor (Q = 0). Every
		// other epoch, before the kill and over the shrunk group after it,
		// realizes the configured Q.
		for e, es := range rr.Epochs {
			want := q
			if e == killEpoch {
				want = 0
				if !es.Disrupted {
					t.Errorf("survivor %d epoch %d not marked disrupted", i, e)
				}
			} else if es.Disrupted || es.Skipped {
				t.Errorf("survivor %d epoch %d disrupted or skipped", i, e)
			}
			if es.EffectiveQ != want {
				t.Errorf("survivor %d epoch %d: EffectiveQ = %v, want %v", i, e, es.EffectiveQ, want)
			}
		}
	}
	requireBalancedStores(t, survivors)

	// Exactly synchronous SGD over the survivors: final weights must be
	// bitwise identical on every surviving rank.
	ref := survivors[0].FinalParams
	for i, rr := range survivors[1:] {
		for p := range ref {
			for j := range ref[p].W {
				if rr.FinalParams[p].W[j] != ref[p].W[j] {
					t.Fatalf("survivor %d param %d[%d] diverged: %v vs %v",
						i+1, p, j, rr.FinalParams[p].W[j], ref[p].W[j])
				}
			}
		}
	}

	// Training still works after the group shrank.
	last := survivors[0].Epochs[epochs-1]
	if !last.Skipped && last.ValAcc < 0.8 {
		t.Errorf("final accuracy %v after degradation, want >= 0.8 on easy task", last.ValAcc)
	}

	// The disruption left its mark in the trace: one degraded event per
	// survivor, at the reset epoch.
	marked := 0
	for _, ev := range rec.Events() {
		if ev.Phase == trace.PhaseDegraded {
			if ev.Epoch != killEpoch || ev.EffectiveQ != 0 {
				t.Errorf("rank %d: degraded event at epoch %d with EffectiveQ %v, want epoch %d with 0", ev.Rank, ev.Epoch, ev.EffectiveQ, killEpoch)
			}
			marked++
		}
	}
	if marked != workers-1 {
		t.Errorf("%d PhaseDegraded trace events, want one per survivor (%d)", marked, workers-1)
	}
}

// requireBalancedStores fails unless the ranks' final stores are disjoint
// and hold N/M samples rounded either way, N being what they hold together:
// the re-formation re-deals what survived, and balanced exchanges keep the
// deal.
func requireBalancedStores(t *testing.T, rrs []*RankResult) {
	t.Helper()
	held, lo, hi := make(map[int]bool), math.MaxInt, 0
	for i, rr := range rrs {
		for _, id := range rr.FinalLocalIDs {
			if held[id] {
				t.Fatalf("sample %d held twice (second time by rank result %d)", id, i)
			}
			held[id] = true
		}
		lo, hi = min(lo, len(rr.FinalLocalIDs)), max(hi, len(rr.FinalLocalIDs))
	}
	if hi-lo > 1 {
		t.Errorf("final stores hold %d..%d samples, want a ±1-balanced cover of the %d held", lo, hi, len(held))
	}
}

// TestDegradeModeKillAtFirstIteration kills the victim before it finishes a
// single iteration of epoch 0 — the survivors must absorb a peer that never
// shipped a full chunk.
func TestDegradeModeKillAtFirstIteration(t *testing.T) {
	const (
		workers = 3
		victim  = 0 // rank 0 dying also exercises group-root re-election
		q       = 0.4
	)
	ds := testDataset(t, 384, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = 3
	cfg.OnPeerFail = "degrade"

	rrs, errs := runWorldWithVictim(t, cfg, workers, victim, 0, 0)
	for r := 1; r < workers; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor rank %d failed: %v", r, errs[r])
		}
		if got := len(rrs[r].Epochs); got != 3 {
			t.Fatalf("survivor rank %d recorded %d epochs, want 3", r, got)
		}
	}
	for p := range rrs[1].FinalParams {
		for j := range rrs[1].FinalParams[p].W {
			if rrs[1].FinalParams[p].W[j] != rrs[2].FinalParams[p].W[j] {
				t.Fatalf("survivors diverged at param %d[%d]", p, j)
			}
		}
	}
}

// TestDegradeModeOverlappedGrads exercises the recovery path with in-flight
// bucketed all-reduces: the bucket rings must settle (no leaked goroutine,
// no stale tag reuse) and the rebuilt bounds must match the shrunken group.
func TestDegradeModeOverlappedGrads(t *testing.T) {
	const (
		workers = 4
		victim  = 1
		q       = 0.3
	)
	ds := testDataset(t, 512, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = 3
	cfg.OnPeerFail = "degrade"
	cfg.OverlapGrads = true
	cfg.gradBucketBytes = 4 << 10

	rrs, errs := runWorldWithVictim(t, cfg, workers, victim, 1, 2)
	var survivors []*RankResult
	for r := 0; r < workers; r++ {
		if r == victim {
			continue
		}
		if errs[r] != nil {
			t.Fatalf("survivor rank %d failed: %v", r, errs[r])
		}
		survivors = append(survivors, rrs[r])
	}
	ref := survivors[0].FinalParams
	for i, rr := range survivors[1:] {
		for p := range ref {
			for j := range ref[p].W {
				if rr.FinalParams[p].W[j] != ref[p].W[j] {
					t.Fatalf("survivor %d diverged at param %d[%d]", i+1, p, j)
				}
			}
		}
	}
}

// TestAbortModePropagatesPeerDeath: the default policy fails every survivor
// with the typed peer error — what a launcher turns into a non-zero exit
// and a per-rank report.
func TestAbortModePropagatesPeerDeath(t *testing.T) {
	const (
		workers = 3
		victim  = 1
	)
	ds := testDataset(t, 384, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(0.4))
	cfg.Epochs = 3 // plenty of run left when the victim dies

	_, errs := runWorldWithVictim(t, cfg, workers, victim, 0, 1)
	for r := 0; r < workers; r++ {
		if r == victim {
			continue
		}
		if errs[r] == nil {
			t.Fatalf("survivor rank %d succeeded; abort policy must propagate the failure", r)
		}
		pe, ok := mpi.PeerErrorFrom(errs[r])
		if !ok {
			t.Fatalf("survivor rank %d error carries no PeerError: %v", r, errs[r])
		}
		if pe.Rank != victim {
			t.Fatalf("survivor rank %d blames rank %d, want %d", r, pe.Rank, victim)
		}
	}
}

func TestValidateRejectsBadOnPeerFail(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, 4, shuffle.Partial(0.3))
	for _, ok := range []string{"", "abort", "degrade"} {
		cfg.OnPeerFail = ok
		if err := cfg.Validate(); err != nil {
			t.Errorf("OnPeerFail=%q rejected: %v", ok, err)
		}
	}
	cfg.OnPeerFail = "retry"
	if err := cfg.Validate(); err == nil {
		t.Error("OnPeerFail=retry accepted")
	}
}
