package shuffle

import (
	"fmt"

	"plshuffle/internal/rng"
)

// ExchangePlan is one worker's view of one epoch's global exchange
// (Algorithm 1): for each slot i, send local sample SendIDs[i] to rank
// Dests[i]. Because Dests[i] is this worker's entry in a permutation of all
// ranks shared (via the seed) by every worker, each rank sends and receives
// exactly one sample per slot — the balanced communication property of
// Section III-B.
type ExchangePlan struct {
	Epoch   int
	SendIDs []int
	Dests   []int
}

// Slots returns the number of exchange rounds in the plan.
func (p ExchangePlan) Slots() int { return len(p.SendIDs) }

// PlanExchange computes rank's exchange plan for an epoch.
//
// Following Algorithm 1: p ← a random permutation of the local samples
// (each worker's private stream, so the exchanged samples are themselves
// randomized); for each slot i, dest ← the rank's entry in a shared-seed
// random permutation of all ranks (one permutation per (epoch, slot)).
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
	plan := ExchangePlan{Epoch: epoch, SendIDs: make([]int, k), Dests: make([]int, k)}
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
	}
	return plan, nil
}

// ExchangeTag is the user tag of epoch's sample exchange traffic: the raw
// epoch (layout table in internal/train/tags.go).
func ExchangeTag(epoch int) int { return epoch }

// ExpectedSenders computes, for every slot of an epoch's exchange, the rank
// that sends toward rank — the inverse of the shared-seed destination
// permutations. Because every worker derives the same per-slot permutation
// from the seed, the sender set is locally computable: no consensus round is
// needed when a failure forces the receive expectation to be rebuilt (the
// graceful-degradation path). groupSize 0 selects the flat exchange,
// matching PlanExchange; a positive groupSize matches
// PlanExchangeHierarchical.
func ExpectedSenders(rank, size, groupSize, slots int, seed uint64, epoch int) []int {
	senders := make([]int, slots)
	if groupSize > 0 {
		groups := size / groupSize
		groupPerm := make([]int, groups)
		intraPerm := make([]int, groupSize)
		for i := 0; i < slots; i++ {
			rng.NewStream(seed, saltGroupDest, uint64(epoch), uint64(i)).PermInto(groupPerm)
			rng.NewStream(seed, saltIntraDest, uint64(epoch), uint64(i)).PermInto(intraPerm)
			// dest(r) = groupPerm[r/gs]*gs + intraPerm[r%gs]; invert both levels.
			sg, si := -1, -1
			for g, dg := range groupPerm {
				if dg == rank/groupSize {
					sg = g
					break
				}
			}
			for l, dl := range intraPerm {
				if dl == rank%groupSize {
					si = l
					break
				}
			}
			senders[i] = sg*groupSize + si
		}
		return senders
	}
	destPerm := make([]int, size)
	for i := 0; i < slots; i++ {
		rng.NewStream(seed, saltDest, uint64(epoch), uint64(i)).PermInto(destPerm)
		for s, d := range destPerm {
			if d == rank {
				senders[i] = s
				break
			}
		}
	}
	return senders
}

// PlanExchangeUnbalanced is the ablation baseline (DESIGN.md §5): each
// worker draws destinations uniformly at random from its own private
// stream, as a naive implementation (and the prior systems the paper cites,
// whose exchange split "is itself random") would. Send counts remain k per
// worker but receive counts become multinomial — workers can no longer post
// a fixed number of receives, so the scheme needs an extra metadata round
// and produces unbalanced storage and communication. CountImbalance
// quantifies the skew without running messages.
func PlanExchangeUnbalanced(rank, size int, localIDs []int, q float64, totalN int, seed uint64, epoch int) (ExchangePlan, error) {
	if rank < 0 || rank >= size {
		return ExchangePlan{}, fmt.Errorf("shuffle: PlanExchangeUnbalanced: rank %d out of [0,%d)", rank, size)
	}
	k := Slots(q, totalN, size)
	if k > len(localIDs) {
		return ExchangePlan{}, fmt.Errorf("shuffle: PlanExchangeUnbalanced: %d slots but only %d local samples", k, len(localIDs))
	}
	plan := ExchangePlan{Epoch: epoch, SendIDs: make([]int, k), Dests: make([]int, k)}
	if k == 0 {
		return plan, nil
	}
	r := rng.NewStream(seed, saltSend, uint64(epoch), uint64(rank))
	p := r.Perm(len(localIDs))
	for i := 0; i < k; i++ {
		plan.SendIDs[i] = localIDs[p[i]]
		plan.Dests[i] = r.Intn(size)
	}
	return plan, nil
}

// CountImbalance returns, for a set of per-rank plans, each rank's receive
// count. For balanced plans every entry equals the slot count; for the
// unbalanced ablation the spread demonstrates why Algorithm 1 uses shared
// permutations.
func CountImbalance(plans []ExchangePlan, size int) []int {
	counts := make([]int, size)
	for _, p := range plans {
		for _, d := range p.Dests {
			counts[d]++
		}
	}
	return counts
}
