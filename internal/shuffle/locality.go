package shuffle

import (
	"fmt"
	"sort"

	"plshuffle/internal/rng"
)

// PartitionWithLocality splits n samples across m workers like Partition,
// but with a tunable class-locality bias. locality = 0 reproduces the
// uniform random permutation of Figure 2; locality = 1 cuts a fully
// class-sorted order into contiguous chunks, giving each worker only
// ~C/M classes.
//
// Why this knob exists: the synthetic proxy datasets are Gaussian, so a
// uniformly random shard of even 64 samples has nearly global statistics —
// unlike a 292-sample shard of a real image dataset, whose statistics
// through a deep network diverge strongly from the global distribution.
// Class-locality is how that divergence is calibrated (DESIGN.md §2): it
// models both the heavy-tailed clustering of real data and the
// class-major storage layouts (ImageFolder directories, tar/WebDataset
// shards) from which node-local staging actually copies contiguous ranges.
// The local-shuffling accuracy experiments sweep this knob; partial local
// shuffling's exchange progressively re-randomizes the shards regardless
// of the initial locality, which is precisely the paper's recovery
// mechanism.
func PartitionWithLocality(labels []int, m int, locality float64, seed uint64) ([][]int, error) {
	n := len(labels)
	if n == 0 || m <= 0 {
		return nil, fmt.Errorf("shuffle: PartitionWithLocality(n=%d, m=%d): arguments must be positive", n, m)
	}
	if m > n {
		return nil, fmt.Errorf("shuffle: PartitionWithLocality(n=%d, m=%d): more workers than samples", n, m)
	}
	if locality < 0 || locality > 1 {
		return nil, fmt.Errorf("shuffle: PartitionWithLocality: locality %v out of [0,1]", locality)
	}
	r := rng.NewStream(seed, saltPartition)
	randPerm := r.Perm(n)

	// Rank of each id in the class-sorted order (by label, then id).
	sortedIDs := make([]int, n)
	for i := range sortedIDs {
		sortedIDs[i] = i
	}
	sort.Slice(sortedIDs, func(a, b int) bool {
		ia, ib := sortedIDs[a], sortedIDs[b]
		if labels[ia] != labels[ib] {
			return labels[ia] < labels[ib]
		}
		return ia < ib
	})
	sortedRank := make([]float64, n)
	for pos, id := range sortedIDs {
		sortedRank[id] = float64(pos)
	}
	randRank := make([]float64, n)
	for pos, id := range randPerm {
		randRank[id] = float64(pos)
	}

	// Blend the two orders: each sample's position key interpolates between
	// its random rank and its class-sorted rank.
	type keyed struct {
		id  int
		key float64
	}
	keys := make([]keyed, n)
	for id := 0; id < n; id++ {
		keys[id] = keyed{id: id, key: locality*sortedRank[id] + (1-locality)*randRank[id]}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].key != keys[b].key {
			return keys[a].key < keys[b].key
		}
		return keys[a].id < keys[b].id
	})

	out := make([][]int, m)
	base := n / m
	extra := n % m
	off := 0
	for w := 0; w < m; w++ {
		size := base
		if w < extra {
			size++
		}
		part := make([]int, size)
		for i := 0; i < size; i++ {
			part[i] = keys[off+i].id
		}
		out[w] = part
		off += size
	}
	return out, nil
}
