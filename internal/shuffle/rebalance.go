package shuffle

// Store rebalance for elastic worlds (DESIGN.md §10, §15): when the
// collective group changes shape — a joiner arrived mid-run, or the group
// shrank around the dead — the local-family strategies must restore the
// invariant the exchange scheduler and the iteration-count derivation rely
// on: every group member holds a balanced, disjoint share of the surviving
// samples. Rebalance computes a deterministic target partition of whatever
// currently survives (a degraded world may have lost the dead ranks'
// unexchanged samples) that keeps every sample it can where it is, and moves
// the rest through one Scheduler window on a dedicated tag space.

import (
	"fmt"
	"slices"
	"sort"

	"plshuffle/internal/mpi"
	"plshuffle/internal/rng"
	"plshuffle/internal/store"
)

// saltRebalance keeps the rebalance target permutation off every other
// random stream of the scheme (see the salt table in partition.go).
const saltRebalance uint64 = 0x4eba

// RebalanceTag is the user tag of the rebalance window before epoch in
// membership generation generation (mpi.Comm.Generation; layout table in
// internal/train/tags.go). The generation salts it as it salts the
// collectives: a rebalance abandoned to a death is retried — the same epoch,
// the next generation — and must not match the frames the first attempt left
// in the mailboxes.
func RebalanceTag(generation, epoch int) int { return (generation+1)<<24 + 1<<23 + epoch }

// RebalanceStats reports what one rank's share of a rebalance moved.
type RebalanceStats struct {
	Sent, Received int
	// Total is the number of surviving samples across the group — the
	// conservation denominator every member agreed on.
	Total int
}

// Rebalance redistributes the group's stored samples to a deterministic
// balanced partition: gather every member's current ID set (one
// AllgatherVarLen), let each member keep a seeded random choice of its own
// up to its near-equal share, deal the surplus to the members short of
// theirs, and ship each dealt sample from its holder to its target in the
// Scheduler's transaction: one batched frame per destination, receives
// applied before deletes (the exchange's storage discipline, so the
// transient peak is the old share plus the incoming one). One mpi.Agree on
// "received my share" then commits the window on every member or abandons
// it on every member: a member's death before the decision returns, on
// every survivor, an error carrying the dead member's *transport.PeerError
// (mpi.PeerErrorFrom) and leaves the store untouched.
//
// Every member must call Rebalance with the same (seed, epoch) at a
// quiescent point — no exchange window open, no collective in flight. A
// joiner with an empty store participates like any member and receives its
// full share. Duplicate holdings, missing holders, or a post-transfer
// mismatch with the target are errors (the conservation check).
func Rebalance(c *mpi.Comm, st *store.Local, seed uint64, epoch int) (RebalanceStats, error) {
	var stats RebalanceStats
	group := c.GroupRanks()
	mine := st.IDs()
	all := mpi.AllgatherVarLen(c, mine)

	holder := make(map[int]int)
	for _, r := range group {
		for _, id := range all[r] {
			if prev, dup := holder[id]; dup {
				return stats, fmt.Errorf("shuffle: Rebalance: sample %d held by both rank %d and rank %d", id, prev, r)
			}
			holder[id] = r
		}
	}
	total := len(holder)
	if total == 0 {
		return stats, fmt.Errorf("shuffle: Rebalance: no samples survive in the group")
	}
	if total < len(group) {
		return stats, fmt.Errorf("shuffle: Rebalance: %d samples over %d members", total, len(group))
	}
	stats.Total = total

	// Deterministic target, moving as little as it can: member gi of the
	// group is owed base samples, one more for the first total%m, and keeps
	// that many of its own, picked by a stream of (seed, epoch, rank); the
	// rest of its holdings is surplus. The surplus, in group order, fills the
	// short members in group order. Identical inputs on every member ⇒
	// identical plan, no further coordination.
	m := len(group)
	base, extra := total/m, total%m
	var surplus, target []int
	var short []int // group members owed samples, with multiplicity
	for gi, r := range group {
		owed := base
		if gi < extra {
			owed++
		}
		held := slices.Clone(all[r])
		rng.NewStream(seed, saltRebalance, uint64(epoch), uint64(r)).Shuffle(len(held), func(i, j int) {
			held[i], held[j] = held[j], held[i]
		})
		keep := min(owed, len(held))
		if r == c.Rank() {
			target = slices.Clone(held[:keep])
		}
		surplus = append(surplus, held[keep:]...)
		for range owed - keep {
			short = append(short, r)
		}
	}
	// That is also this rank's plan: its surplus goes where the deal sends
	// it, and what the deal owes it arrives from the holders.
	plan := ExchangePlan{Epoch: epoch}
	for i, id := range surplus {
		switch h, to := holder[id], short[i]; {
		case h == c.Rank():
			plan.SendIDs = append(plan.SendIDs, id)
			plan.Dests = append(plan.Dests, to)
		case to == c.Rank():
			plan.Senders = append(plan.Senders, h)
			target = append(target, id)
		}
	}
	sort.Ints(target)

	// One Scheduler window moves it; the agreement commits it everywhere or
	// nowhere.
	sched, err := NewScheduler(c, st, 0, total, seed)
	if err != nil {
		return stats, err
	}
	if err := sched.Open(plan, RebalanceTag(c.Generation(), epoch)); err != nil {
		return stats, err
	}
	if err := sched.Settle(); err != nil {
		return stats, fmt.Errorf("shuffle: Rebalance: %w", err)
	}
	stats.Sent, stats.Received = plan.Slots(), len(plan.Senders)

	// Conservation: this rank must now hold exactly its target share.
	got := st.IDs()
	if len(got) != len(target) {
		return stats, fmt.Errorf("shuffle: Rebalance: rank %d holds %d samples after rebalance, want %d", c.Rank(), len(got), len(target))
	}
	for i := range got {
		if got[i] != target[i] {
			return stats, fmt.Errorf("shuffle: Rebalance: rank %d holds sample %d where target expects %d", c.Rank(), got[i], target[i])
		}
	}
	return stats, nil
}
