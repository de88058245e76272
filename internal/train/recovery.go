package train

// Group re-formation (DESIGN.md §10): shrinking around dead peers, and the
// one resync every membership change — shrink, grow, join — ends with.

import (
	"fmt"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport"
)

// checkpointAfterRecovery commits the post-shrink snapshot, riding out
// further deaths with bounded retries: each failed attempt re-forms the
// group (the generation bump re-salts the checkpoint tag, so a retry can
// never gather a stale report from the failed attempt) and tries again.
func (w *worker) checkpointAfterRecovery(resume int) error {
	const maxAttempts = 4
	for attempt := 0; ; attempt++ {
		err := w.comm.Guard(func() error { return w.saveCheckpoint(resume) })
		if err == nil {
			return nil
		}
		pe, isPeer := mpi.PeerErrorFrom(err)
		if !isPeer || attempt == maxAttempts-1 {
			return fmt.Errorf("post-recovery checkpoint before epoch %d: %w", resume, err)
		}
		var es EpochStats
		if _, rerr := w.recoverPeerFailure(resume-1, pe, &es); rerr != nil {
			return fmt.Errorf("recovering from death of rank %d during post-recovery checkpoint: %w", pe.Rank, rerr)
		}
	}
}

// recoverPeerFailure re-forms the world around the dead peer(s) and returns
// the epoch at which every survivor resumes. It runs on every survivor —
// the failure registry unwinds the same collective on each of them (they
// are at most ONE collective apart, because every trainer collective is a
// ring that cannot complete without all members) — and performs, in
// lock-step:
//
//  1. Drain any in-flight gradient buckets (their rings unwind on the
//     failure registry; waiting here is what keeps the no-leaked-goroutine
//     guarantee).
//  2. Shrink the collective group to the survivors and realign the
//     collective sequence counter to a generation-salted base every
//     survivor derives locally, so stale frames from the sacrificed
//     collective can never alias a future tag.
//  3. Reconcile over the shrunken group (one AllgatherVarLen): each
//     survivor shares its current epoch and its known-dead set. If the
//     dead sets disagree (a survivor learned of the death late), everyone
//     adopts the union and repeats with the next generation.
//  4. Resolve the disrupted epoch's exchange: if every survivor had opened
//     it, complete it (Synchronize + CleanLocalStorage — the no-lost/no-dup
//     invariant's normal path); if some survivor never entered the epoch,
//     the ranks that did ABANDON it (Scheduler.Reset — the store is
//     untouched, so their unreceived sends stay conserved at the sender)
//     and the resume point skips past it so its tag space is never
//     re-entered.
//  5. resync: the lowest surviving rank's replica state becomes the
//     group's (survivors can be one gradient step, or one Q decision,
//     apart).
func (w *worker) recoverPeerFailure(epoch int, first *transport.PeerError, es *EpochStats) (resume int, err error) {
	// Step 1: settle in-flight bucket all-reduces. Each either completed
	// before the death or unwinds on the failure registry; both are fine.
	for bi, req := range w.bucketReqs {
		if req == nil {
			continue
		}
		r := req
		_ = w.comm.Guard(func() error { r.Wait(); return nil })
		w.bucketReqs[bi] = nil
	}

	// Steps 2-3: shrink + reconcile, repeating if the death sets disagree
	// or another peer dies during the reconciliation itself.
	const maxGenerations = 4
	var gathered [][]int
	for attempt := 0; ; attempt++ {
		if attempt == maxGenerations {
			return 0, fmt.Errorf("reconciliation did not converge after %d generations", maxGenerations)
		}
		dead := w.comm.FailedPeers()
		live := subtractSorted(w.comm.GroupRanks(), dead)
		if len(live) == 0 {
			return 0, fmt.Errorf("no survivors")
		}
		if err := w.comm.Shrink(live); err != nil {
			return 0, err
		}
		if err := w.bumpGeneration(); err != nil {
			return 0, err
		}
		var g [][]int
		gerr := w.comm.Guard(func() error {
			g = mpi.AllgatherVarLen(w.comm, append([]int{epoch}, dead...))
			return nil
		})
		if gerr != nil {
			continue // another death mid-reconciliation: next generation
		}
		union := append([]int(nil), dead...)
		agreed := true
		for _, r := range live {
			union = unionSorted(union, g[r][1:])
		}
		for _, r := range live {
			if !equalInts(g[r][1:], union) {
				agreed = false
			}
		}
		if !agreed {
			// Adopt the union and repeat — every survivor sees the same
			// gathered sets, so every survivor repeats with the same
			// generation counter.
			for _, dr := range union {
				if w.comm.PeerFailure(dr) == nil {
					w.comm.NotePeerFailure(transport.PeerError{Rank: dr, Phase: "reconciliation"})
				}
			}
			continue
		}
		gathered = g
		break
	}

	// Step 4: resolve the disrupted epoch's exchange and the resume point.
	minCur, maxCur := epoch, epoch
	for _, r := range w.comm.GroupRanks() {
		if c := gathered[r][0]; c < minCur {
			minCur = c
		} else if c > maxCur {
			maxCur = c
		}
	}
	if maxCur-minCur > 1 {
		return 0, fmt.Errorf("survivors diverged by %d epochs (min %d, max %d)", maxCur-minCur, minCur, maxCur)
	}
	resume = maxCur + 1
	if w.exchEpoch >= 0 {
		if epoch == minCur {
			// Everyone reached this epoch's exchange (ranks further along
			// completed it already): finish it properly so sent samples
			// commit and received ones are saved.
			if ferr := w.finishExchange(es); ferr != nil {
				return 0, ferr
			}
		} else {
			// Some survivor never opened this epoch: abandon it. The store
			// is untouched (no sample was deleted), so what we sent and
			// they never received survives here — conserved, not duplicated
			// (their copies rot undecoded in the mailbox; the epoch's tag
			// is never used again because resume skips past it). What it
			// did put on the wire is still this epoch's traffic.
			w.recordExchange(es)
			w.exchanger.Reset()
			w.exchEpoch = -1
		}
	} else if w.exchanger != nil {
		w.recordDegradation(es)
	}
	// Step 5, with the exchange window closed (finishExchange or Reset
	// above). Survivors may stand one epoch apart, so the Q agreement is
	// stamped with the resume point they share.
	if err := w.resync(resume); err != nil {
		return 0, err
	}
	return resume, nil
}

// bumpGeneration opens the next membership generation. SetCollSeq salts
// every collective's tags with it — the one place that rule lives — so
// frames of a collective sacrificed in an earlier generation can never alias
// a live one. Every member of the re-formed group calls it in lock-step,
// without communicating.
func (w *worker) bumpGeneration() error {
	w.generation++
	base := w.generation << 32
	if base <= w.comm.CollSeq() {
		return fmt.Errorf("collective sequence space exhausted (seq %d)", w.comm.CollSeq())
	}
	w.comm.SetCollSeq(base)
	return nil
}

// resync brings every member of a re-formed group — shrunk around a death,
// grown over joiners, or the joiner itself — to one replica state: the group
// root's weights and Q win, and everything derived from the group shape is
// rebuilt. Batch-norm RUNNING statistics are deliberately left alone: they
// are per-worker by design (the paper's central mechanism) and were never
// synchronized, so they carry no cross-rank consistency requirement.
// epoch is the boundary the group resumes at; the exchange window must be
// closed.
func (w *worker) resync(epoch int) error {
	root := w.comm.GroupRanks()[0]
	for _, p := range w.params {
		mpi.Bcast(w.comm, p.W, root)
	}
	if w.cfg.AutoQ {
		if err := w.agreeQ(epoch); err != nil {
			return err
		}
	}
	// Re-created optimizer state (zeroed moments) is the one state every
	// member can agree on without shipping buffers.
	w.opt = newOptimizer(w.cfg)
	w.setupOverlap()
	if w.exchanger != nil {
		// The pair dedup caches are pure functions of each pair's delivered
		// frame stream, and a re-formation leaves members at different points
		// in that stream (some completed a disrupted epoch's exchange, some
		// abandoned it; a joiner has seen none). Everyone drops to the shared
		// empty state; the caches rebuild from live traffic in the next epoch.
		w.exchanger.InvalidateDedup()
	}
	w.tm.WorldSize.SetInt(int64(w.comm.GroupSize()))
	w.tm.Generation.SetInt(int64(w.generation))
	return nil
}

// subtractSorted returns a minus b; both must be sorted ascending.
func subtractSorted(a, b []int) []int {
	out := a[:0:0]
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// unionSorted merges two sorted ascending slices without duplicates.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func equalInts(a, b []int) bool {
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
