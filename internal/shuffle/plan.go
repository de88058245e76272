package shuffle

// The epoch planner (DESIGN.md §17 "The plan is data"): every strategy's
// epoch is one pure function of the shared seed, so every rank derives its
// plan — and the plan of every other rank — without communicating. The
// Scheduler executes the exchange half (Scheduler.Open) and the trainer the
// read half.

import "fmt"

// World is what a rank's epoch plan depends on besides the strategy, the
// seed and the epoch: the rank's place in the world and the dataset's shape.
// Every rank of a world passes the same value apart from Rank.
type World struct {
	Rank, Size int
	// N is the number of training samples: GS permutes them all, and PLS
	// exchanges Slots(Q, N, Size) of each rank's.
	N int
	// Corgi2 only: the dataset's shard count, each shard's sample count, and
	// the online-shuffle window in shards (0 = one window over the rank's
	// whole assignment).
	Shards       int
	ShardSamples func(shard int) int
	Window       int
}

// EpochPlan is one rank's whole epoch as data.
type EpochPlan struct {
	Epoch int
	// Order is the sample IDs the rank trains on, in iteration order (nil
	// under Corgi2, whose order is Corgi2.Order). FromPFS says it is read
	// from the shared PFS view (GS) rather than the rank's local store.
	Order   []int
	FromPFS bool
	// Corgi2 is the shard read plan: the windows to pin, their bounds, and
	// the sample refs in order (zero for the other strategies).
	Corgi2 Corgi2Plan
	// Floor is the per-rank sample count every rank iterates over, the same
	// on every rank: floor(N/Size), or under Corgi2 the smallest assigned
	// total over ranks.
	Floor int
	// Exchange is the rank's share of the epoch's sample exchange (no slots
	// unless PartialLocal).
	Exchange ExchangePlan
}

// PlanEpoch returns rank w.Rank's plan for epoch. localIDs is the rank's
// local sample set (LS and PLS; store.Local.IDs order). weights, when
// non-nil, are the Section IV-B importance weights (per-sample losses): the
// iteration order becomes WeightedOrder's ranking, and PLS sends its top
// Slots entries instead of a uniform pick (the destinations keep the
// balanced shared-seed permutations).
//
// The result is a pure function of the arguments — no state of the caller
// feeds back into it — which is what lets every rank agree on the epoch
// without a message, lets a re-formed world re-deal by construction, and
// lets testdata/plans.golden pin it.
func PlanEpoch(s Strategy, w World, seed uint64, epoch int, localIDs []int, weights map[int]float64) (EpochPlan, error) {
	if err := s.Validate(); err != nil {
		return EpochPlan{}, err
	}
	if w.Rank < 0 || w.Rank >= w.Size {
		return EpochPlan{}, fmt.Errorf("shuffle: PlanEpoch: rank %d out of [0,%d)", w.Rank, w.Size)
	}
	p := EpochPlan{Epoch: epoch, Floor: w.N / w.Size, Exchange: ExchangePlan{Epoch: epoch}}
	switch s.Kind {
	case Global:
		parts, err := GlobalEpochPartition(w.N, w.Size, seed, epoch)
		if err != nil {
			return EpochPlan{}, err
		}
		p.Order, p.FromPFS = parts[w.Rank], true
		if weights != nil {
			p.Order = WeightedOrder(p.Order, weights, seed, epoch, w.Rank)
		}
	case Local, PartialLocal:
		if weights != nil {
			p.Order = WeightedOrder(localIDs, weights, seed, epoch, w.Rank)
		} else {
			p.Order = EpochOrder(localIDs, seed, epoch, w.Rank)
		}
		if s.Kind == Local {
			break
		}
		x, err := PlanExchange(w.Rank, w.Size, localIDs, s.Q, w.N, seed, epoch)
		if err != nil {
			return EpochPlan{}, err
		}
		if weights != nil {
			// One weighted ranking serves both halves: the iteration order,
			// and (its first Slots entries) the send set.
			copy(x.SendIDs, p.Order)
		}
		p.Exchange = x
	case Corgi2:
		assign, err := Corgi2Assign(w.Shards, w.Size, seed, s.EpochGroup(epoch))
		if err != nil {
			return EpochPlan{}, err
		}
		for r, shards := range assign {
			total := 0
			for _, sh := range shards {
				total += w.ShardSamples(sh)
			}
			if r == 0 || total < p.Floor {
				p.Floor = total
			}
		}
		p.Corgi2 = Corgi2EpochPlan(assign[w.Rank], w.ShardSamples, w.Window, seed, epoch, w.Rank)
	}
	return p, nil
}
