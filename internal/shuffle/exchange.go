package shuffle

import (
	"fmt"

	"plshuffle/internal/rng"
)

// ExchangePlan is one worker's view of one epoch's global exchange
// (Algorithm 1): for each slot i, send local sample SendIDs[i] to rank
// Dests[i], and receive one sample from rank Senders[i]. Because Dests[i] is
// this worker's entry in a permutation of all ranks shared (via the seed) by
// every worker, each rank sends and receives exactly one sample per slot —
// the balanced communication property of Section III-B — and Senders[i] is
// that permutation's inverse at this rank, so every rank knows whom it
// waits for without asking. A plan that is not per-slot balanced (the
// post-join rebalance) lists one sender per sample it receives. Ranks are
// world ranks: a plan drawn over a shrunk group's indices is mapped back to
// them where it is made. Q is the exchange
// fraction the plan was drawn at (zero for a plan that is not a PLS exchange):
// the Scheduler's EffectiveQ scales it.
type ExchangePlan struct {
	Epoch   int
	Q       float64
	SendIDs []int
	Dests   []int
	Senders []int
}

// Slots returns the number of exchange rounds in the plan.
func (p ExchangePlan) Slots() int { return len(p.SendIDs) }

// PlanExchange computes rank's exchange plan for an epoch.
//
// Following Algorithm 1: p ← a random permutation of the local samples
// (each worker's private stream, so the exchanged samples are themselves
// randomized); for each slot i, dest ← the rank's entry in a shared-seed
// random permutation of all ranks (one permutation per (epoch, slot)), and
// the slot's sender is the rank that permutation maps to this one.
//
// totalN and size determine the shared slot count via Slots(q, totalN,
// size); localIDs is this worker's current local sample set. A plan is
// valid only if the worker holds at least Slots samples, which the
// (1+Q)·N/M storage scheme guarantees.
func PlanExchange(rank, size int, localIDs []int, q float64, totalN int, seed uint64, epoch int) (ExchangePlan, error) {
	if rank < 0 || rank >= size {
		return ExchangePlan{}, fmt.Errorf("shuffle: PlanExchange: rank %d out of [0,%d)", rank, size)
	}
	if q < 0 || q > 1 {
		return ExchangePlan{}, fmt.Errorf("shuffle: PlanExchange: fraction %v out of [0,1]", q)
	}
	k := Slots(q, totalN, size)
	if k > len(localIDs) {
		return ExchangePlan{}, fmt.Errorf("shuffle: PlanExchange: %d slots but only %d local samples on rank %d", k, len(localIDs), rank)
	}
	plan := ExchangePlan{Epoch: epoch, Q: q, SendIDs: make([]int, k), Dests: make([]int, k), Senders: make([]int, k)}
	if k == 0 {
		return plan, nil
	}
	// Line 1: p <- random permutation of the local samples (private stream).
	p := rng.NewStream(seed, saltSend, uint64(epoch), uint64(rank)).Perm(len(localIDs))
	// Lines 2-4: per-slot shared destination permutation of all ranks.
	destPerm := make([]int, size)
	for i := 0; i < k; i++ {
		rng.NewStream(seed, saltDest, uint64(epoch), uint64(i)).PermInto(destPerm)
		plan.SendIDs[i] = localIDs[p[i]]
		plan.Dests[i] = destPerm[rank]
		for s, d := range destPerm {
			if d == rank {
				plan.Senders[i] = s
				break
			}
		}
	}
	return plan, nil
}

// ExchangeTag is the user tag of epoch's sample exchange traffic: the raw
// epoch (layout table in internal/train/tags.go).
func ExchangeTag(epoch int) int { return epoch }
