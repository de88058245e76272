package shuffle

// Store rebalance for elastic worlds (DESIGN.md §15): when the collective
// group changes shape outside the failure path — a joiner arrived mid-run —
// the local-family strategies must restore the invariant the exchange
// scheduler and the iteration-count derivation rely on: every group member
// holds a balanced, disjoint share of the surviving samples. Rebalance
// computes a deterministic target partition of whatever currently survives
// (a degraded world may have lost the dead ranks' unexchanged samples) and
// moves exactly the samples that are on the wrong rank through one Scheduler
// window on a dedicated tag space.

import (
	"fmt"
	"slices"
	"sort"

	"plshuffle/internal/mpi"
	"plshuffle/internal/rng"
	"plshuffle/internal/store"
	"plshuffle/internal/transport"
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
// AllgatherVarLen), shuffle the union with a stream shared via (seed,
// epoch), cut it into GroupSize near-equal chunks in group order, and ship
// each misplaced sample from its holder to its target in the Scheduler's
// transaction: one batched frame per destination, receives applied before
// deletes (the exchange's storage discipline, so the transient peak is the
// old share plus the incoming one). One mpi.Agree on "received my share"
// then commits the window on every member or abandons it on every member: a
// member's death before the decision returns, on every survivor, an error
// carrying the dead member's *transport.PeerError (mpi.PeerErrorFrom) and
// leaves the store untouched.
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

	// Deterministic target: sorted union, shared-stream shuffle, contiguous
	// cut in group order (first total%m members take one extra). Identical
	// inputs on every member ⇒ identical plan, no further coordination.
	ids := make([]int, 0, total)
	for id := range holder {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rng.NewStream(seed, saltRebalance, uint64(epoch)).Shuffle(len(ids), func(i, j int) {
		ids[i], ids[j] = ids[j], ids[i]
	})
	// The cut is also this rank's plan: what it holds of another member's
	// share goes there, and what its own share's holders hold arrives from
	// them.
	m := len(group)
	base, extra := total/m, total%m
	plan := ExchangePlan{Epoch: epoch}
	var target []int
	off := 0
	for gi, r := range group {
		size := base
		if gi < extra {
			size++
		}
		share := ids[off : off+size]
		off += size
		if r == c.Rank() {
			target = append([]int(nil), share...)
			sort.Ints(target)
			for _, id := range share {
				if h := holder[id]; h != r {
					plan.Senders = append(plan.Senders, h)
				}
			}
			continue
		}
		for _, id := range share {
			if holder[id] == c.Rank() {
				plan.SendIDs = append(plan.SendIDs, id)
				plan.Dests = append(plan.Dests, r)
			}
		}
	}

	// One Scheduler window moves it; the agreement commits it everywhere or
	// nowhere.
	sched, err := NewScheduler(c, st, 0, total, seed)
	if err != nil {
		return stats, err
	}
	// Ranks the group has already re-formed around are no news to this window.
	sched.dead = make(map[int]bool)
	for _, r := range c.FailedPeers() {
		if i := sort.SearchInts(group, r); i == len(group) || group[i] != r {
			sched.dead[r] = true
		}
	}
	if err := sched.Open(plan, RebalanceTag(c.Generation(), epoch)); err != nil {
		return stats, err
	}
	syncErr := sched.Synchronize()
	ok := 0
	if syncErr == nil {
		ok = 1
	}
	agreed, dead, err := mpi.Agree(c, []int{ok})
	if err == nil && agreed[0] == 1 && len(dead) == 0 {
		err = sched.commit()
	} else {
		sched.Reset()
		switch {
		case err != nil:
		case len(dead) > 0:
			// Named by the first this rank saw die (see train's deadPeer).
			err = &transport.PeerError{Rank: dead[0], Phase: "agree"}
			for _, r := range c.FailedPeers() {
				if slices.Contains(dead, r) {
					err = c.PeerFailure(r)
					break
				}
			}
		case syncErr != nil:
			err = syncErr
		default:
			err = fmt.Errorf("a member did not receive its share")
		}
	}
	if err != nil {
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
