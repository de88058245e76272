package train

// Group re-formation (DESIGN.md §10): shrinking around dead peers, and the
// one resync every membership change — shrink, grow, join — ends with.

import (
	"fmt"
	"slices"

	"plshuffle/internal/mpi"
)

// testAgreeHook runs on every rank as it reaches one of the epoch boundary's
// agreements — "exchange" (the epoch's exchange about to settle; under abort,
// about to commit locally), "checkpoint" (temp file durable, report not yet
// gathered), "rebalance" (before the post-join rebalance's gather) or
// "reconcile" (generation opened) — at the given epoch. Tests script deaths
// from it.
var testAgreeHook = func(c *mpi.Comm, point string, epoch int) {}

// reform handles a failed epoch boundary: err itself under abort or for
// anything but a peer death; under degrade, re-forming the group around the
// dead (recoverPeerFailure), resyncing the survivors, rebalancing their
// stores (the dead took their samples, so the survivors' are disjoint but
// uneven) and, in a checkpointing run, committing the post-shrink snapshot
// at the agreed resume boundary. A death during that tail re-forms again
// from the boundary before resume; each re-formation removes a member.
// stood is the epoch this rank reports.
func (w *worker) reform(err error, stood int, es *EpochStats) (resume int, _ error) {
	for attempt := 0; ; attempt++ {
		pe, isPeer := mpi.PeerErrorFrom(err)
		if !isPeer || w.cfg.OnPeerFail != "degrade" {
			return 0, err
		}
		if attempt == w.comm.Size() {
			return 0, fmt.Errorf("%d re-formations in a row failed: %w", attempt, err)
		}
		resume, err = w.recoverPeerFailure(stood, es)
		if err != nil {
			return 0, fmt.Errorf("recovering from death of rank %d: %w", pe.Rank, err)
		}
		err = w.comm.Guard(func() error {
			if err := w.resync(resume); err != nil {
				return err
			}
			if err := w.rebalance(resume); err != nil {
				return err
			}
			if w.cfg.CheckpointDir == "" || resume > w.cfg.Epochs {
				return nil
			}
			if err := w.saveCheckpoint(resume); err != nil {
				return fmt.Errorf("post-recovery checkpoint before epoch %d: %w", resume, err)
			}
			return nil
		})
		if err == nil {
			return resume, nil
		}
		stood = resume - 1
	}
}

// recoverPeerFailure re-forms the group around the dead and returns the epoch
// every survivor resumes at. Survivors reach it at most one collective apart
// (every collective unwinds on a member's death) and, in lock-step: drain the
// in-flight gradient buckets; open the next generation, so no stale frame of
// a sacrificed collective can alias a later one; agree once on [epoch,
// −epoch] — the dead set and the survivors' minimum and maximum epoch — and
// shrink to the survivors; then reset an exchange window still open
// (Scheduler.Reset: the store is untouched, unreceived sends stay at the
// sender, and the epoch realizes Q = 0) and resume past its tag. A window
// that reached its settling agreement was closed there, on every member alike.
func (w *worker) recoverPeerFailure(epoch int, es *EpochStats) (resume int, err error) {
	// Each in-flight bucket all-reduce completed or unwinds; both are fine.
	for bi, req := range w.bucketReqs {
		if req == nil {
			continue
		}
		r := req
		_ = w.comm.Guard(func() error { r.Wait(); return nil })
		w.bucketReqs[bi] = nil
	}

	if err := w.comm.EnterGeneration(w.comm.Generation() + 1); err != nil {
		return 0, err
	}
	testAgreeHook(w.comm, "reconcile", epoch)
	agreed, dead, err := mpi.Agree(w.comm, []int{epoch, -epoch})
	if err != nil {
		return 0, err
	}
	live := slices.DeleteFunc(w.comm.GroupRanks(), func(r int) bool { return slices.Contains(dead, r) })
	if err := w.comm.Shrink(live); err != nil {
		return 0, err
	}

	minCur, maxCur := agreed[0], -agreed[1]
	if maxCur-minCur > 1 {
		return 0, fmt.Errorf("survivors diverged by %d epochs (min %d, max %d)", maxCur-minCur, minCur, maxCur)
	}
	resume = maxCur + 1
	if w.exchEpoch >= 0 {
		// Its copies of what others never received rot undecoded in their
		// mailboxes: resume skips the epoch's tag.
		w.exchanger.Reset()
		w.exchEpoch = -1
		w.recordExchange(es)
	}
	return resume, nil
}

// resync brings every member of a re-formed group — shrunk, grown, or the
// joiner itself — to one replica state: the root's weights and Q win, and
// everything derived from the group shape is rebuilt. Batch-norm RUNNING
// statistics stay per-worker, as designed (the paper's central mechanism).
// epoch is the boundary the group resumes at; the exchange window is closed.
func (w *worker) resync(epoch int) error {
	mpi.Bcast(w.comm, w.model.Weights(), w.comm.GroupRanks()[0])
	if w.cfg.AutoQ {
		if err := w.agreeQ(epoch); err != nil {
			return err
		}
	}
	// Re-created optimizer state (zeroed moments) is the one state every
	// member can agree on without shipping buffers; setupOverlap shards it
	// over the new group.
	w.opt = newOptimizer(w.cfg)
	w.setupOverlap()
	if w.exchanger != nil {
		// The pair dedup caches follow each pair's delivered frame stream,
		// which a re-formation leaves members at different points in: all
		// drop to the shared empty state and rebuild from live traffic.
		w.exchanger.InvalidateDedup()
	}
	w.tm.WorldSize.SetInt(int64(w.comm.GroupSize()))
	w.tm.Generation.SetInt(int64(w.comm.Generation()))
	return nil
}
