package shuffle

// Store rebalance for elastic worlds (DESIGN.md §15): when the collective
// group changes shape outside the failure path — a joiner arrived mid-run —
// the local-family strategies must restore the invariant the exchange
// scheduler and the iteration-count derivation rely on: every group member
// holds a balanced, disjoint share of the surviving samples. Rebalance
// computes a deterministic target partition of whatever currently survives
// (a degraded world may have lost the dead ranks' unexchanged samples) and
// ships exactly the samples that are on the wrong rank, point-to-point on a
// dedicated tag space.

import (
	"fmt"
	"sort"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/rng"
	"plshuffle/internal/store"
)

// saltRebalance keeps the rebalance target permutation off every other
// random stream of the scheme (see the salt table in partition.go).
const saltRebalance uint64 = 0x4eba

// RebalanceTag is the user tag of the rebalance before epoch: bulk sample
// traffic, point-to-point like the exchange itself. Its range is disjoint
// from every other user tag (layout table in internal/train/tags.go).
func RebalanceTag(epoch int) int { return 1<<23 + epoch }

// RebalanceStats reports what one rank's share of a rebalance moved.
type RebalanceStats struct {
	Sent, Received       int
	SentBytes, RecvBytes int64
	// Total is the number of surviving samples across the group — the
	// conservation denominator every member agreed on.
	Total int
}

// Rebalance redistributes the group's stored samples to a deterministic
// balanced partition: gather every member's current ID set (one
// AllgatherVarLen), shuffle the union with a stream shared via (seed,
// epoch), cut it into GroupSize near-equal chunks in group order, and ship
// each misplaced sample from its holder to its target. Receives complete
// before deletes, mirroring the exchange's receive-before-remove storage
// discipline, so the transient peak is bounded by the old share plus the
// incoming one.
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
	m := len(group)
	base, extra := total/m, total%m
	dest := make(map[int]int, total)
	var target []int
	off := 0
	for gi, r := range group {
		size := base
		if gi < extra {
			size++
		}
		for _, id := range ids[off : off+size] {
			dest[id] = r
		}
		if r == c.Rank() {
			target = append([]int(nil), ids[off:off+size]...)
			sort.Ints(target)
		}
		off += size
	}

	// Ship what is misplaced; count what must arrive. All traffic rides one
	// epoch-scoped tag, so receives can be ANY_SOURCE.
	tag := RebalanceTag(epoch)
	var sendIDs []int
	for _, id := range mine {
		if dest[id] == c.Rank() {
			continue
		}
		s, err := st.Get(id)
		if err != nil {
			return stats, fmt.Errorf("shuffle: Rebalance: %w", err)
		}
		c.Isend(dest[id], tag, s.Encode())
		sendIDs = append(sendIDs, id)
		stats.Sent++
		stats.SentBytes += s.Bytes
	}
	var recvReqs []*mpi.Request
	for _, id := range target {
		if !st.Has(id) {
			recvReqs = append(recvReqs, c.Irecv(mpi.AnySource, tag))
		}
	}
	for _, req := range recvReqs {
		payload, _ := req.Wait()
		s, err := data.DecodeSample(payload.([]byte))
		if err != nil {
			return stats, fmt.Errorf("shuffle: Rebalance: decoding received sample: %w", err)
		}
		if err := st.Put(s); err != nil {
			return stats, fmt.Errorf("shuffle: Rebalance: storing sample %d: %w", s.ID, err)
		}
		stats.Received++
		stats.RecvBytes += s.Bytes
	}
	for _, id := range sendIDs {
		if err := st.Delete(id); err != nil {
			return stats, fmt.Errorf("shuffle: Rebalance: %w", err)
		}
	}

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
