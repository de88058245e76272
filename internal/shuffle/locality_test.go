package shuffle

import (
	"testing"

	"plshuffle/internal/rng"
)

// labelsRoundRobin builds n labels cycling over c classes (the synthetic
// generator's layout).
func labelsRoundRobin(n, c int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % c
	}
	return out
}

func TestLocalityZeroMatchesPartition(t *testing.T) {
	labels := labelsRoundRobin(120, 8)
	a, err := PartitionWithLocality(labels, 6, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(120, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("rank %d sizes differ", r)
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("locality=0 deviates from Partition at rank %d index %d", r, i)
			}
		}
	}
}

func TestLocalityOneIsClassSorted(t *testing.T) {
	const n, c, m = 128, 16, 16
	labels := labelsRoundRobin(n, c)
	parts, err := PartitionWithLocality(labels, m, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	// With n/m == n/c, full locality gives every worker exactly one class.
	cov := ShardClassCoverage(parts, labels, c)
	for r, v := range cov {
		if v != 1.0/float64(c) {
			t.Fatalf("rank %d coverage %v, want exactly one class", r, v)
		}
	}
}

func TestLocalityCoversExactly(t *testing.T) {
	for _, loc := range []float64{0, 0.3, 0.7, 1} {
		labels := labelsRoundRobin(101, 7) // non-divisible
		parts, err := PartitionWithLocality(labels, 4, loc, 5)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, 101)
		total := 0
		for _, part := range parts {
			for _, id := range part {
				if seen[id] {
					t.Fatalf("loc=%v: duplicate id %d", loc, id)
				}
				seen[id] = true
				total++
			}
		}
		if total != 101 {
			t.Fatalf("loc=%v: covered %d of 101", loc, total)
		}
	}
}

func TestLocalityCoverageMonotone(t *testing.T) {
	// Average class coverage per shard must not increase with locality.
	const n, c, m = 4096, 64, 32
	labels := labelsRoundRobin(n, c)
	prev := 2.0
	for _, loc := range []float64{0, 0.5, 0.8, 1} {
		parts, err := PartitionWithLocality(labels, m, loc, 9)
		if err != nil {
			t.Fatal(err)
		}
		cov := ShardClassCoverage(parts, labels, c)
		avg := 0.0
		for _, v := range cov {
			avg += v
		}
		avg /= float64(len(cov))
		if avg > prev+1e-9 {
			t.Fatalf("coverage increased with locality: %v at loc=%v (prev %v)", avg, loc, prev)
		}
		prev = avg
	}
}

func TestLocalityDeterministic(t *testing.T) {
	labels := labelsRoundRobin(256, 8)
	a, _ := PartitionWithLocality(labels, 8, 0.6, 11)
	b, _ := PartitionWithLocality(labels, 8, 0.6, 11)
	c, _ := PartitionWithLocality(labels, 8, 0.6, 12)
	same, diff := true, false
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				same = false
			}
			if a[r][i] != c[r][i] {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("same seed differs")
	}
	if !diff {
		t.Fatal("different seeds identical")
	}
}

func TestLocalityErrors(t *testing.T) {
	labels := labelsRoundRobin(10, 2)
	if _, err := PartitionWithLocality(nil, 2, 0.5, 1); err == nil {
		t.Error("empty labels accepted")
	}
	if _, err := PartitionWithLocality(labels, 0, 0.5, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := PartitionWithLocality(labels, 20, 0.5, 1); err == nil {
		t.Error("m>n accepted")
	}
	if _, err := PartitionWithLocality(labels, 2, 1.5, 1); err == nil {
		t.Error("locality>1 accepted")
	}
	if _, err := PartitionWithLocality(labels, 2, -0.1, 1); err == nil {
		t.Error("locality<0 accepted")
	}
}

func TestShardClassCoverageFull(t *testing.T) {
	labels := labelsRoundRobin(64, 4)
	parts := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} // ids 0..3 are classes 0..3
	cov := ShardClassCoverage(parts, labels, 4)
	if cov[0] != 1 || cov[1] != 1 {
		t.Fatalf("coverage = %v, want full", cov)
	}
	single := [][]int{{0, 4, 8}} // all class 0
	cov = ShardClassCoverage(single, labels, 4)
	if cov[0] != 0.25 {
		t.Fatalf("coverage = %v, want 0.25", cov)
	}
}

// TestExchangeHomogenizesLocalShards verifies the recovery mechanism the
// accuracy experiments rely on: starting from fully class-local shards,
// repeated partial exchanges drive per-shard class coverage up toward the
// uniform-partition level.
func TestExchangeHomogenizesLocalShards(t *testing.T) {
	const n, c, m, q = 512, 16, 8, 0.3
	labels := labelsRoundRobin(n, c)
	parts, err := PartitionWithLocality(labels, m, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	avgCov := func(p [][]int) float64 {
		cov := ShardClassCoverage(p, labels, c)
		s := 0.0
		for _, v := range cov {
			s += v
		}
		return s / float64(len(cov))
	}
	before := avgCov(parts)
	// Simulate the exchange on ID sets only (no message passing needed):
	// apply each epoch's plans to the partitions.
	current := parts
	for epoch := 0; epoch < 8; epoch++ {
		plans := make([]ExchangePlan, m)
		for r := 0; r < m; r++ {
			p, err := PlanExchange(r, m, current[r], q, n, 3, epoch)
			if err != nil {
				t.Fatal(err)
			}
			plans[r] = p
		}
		next := make([][]int, m)
		for r := 0; r < m; r++ {
			sent := map[int]bool{}
			for _, id := range plans[r].SendIDs {
				sent[id] = true
			}
			for _, id := range current[r] {
				if !sent[id] {
					next[r] = append(next[r], id)
				}
			}
		}
		for r := 0; r < m; r++ {
			for i, id := range plans[r].SendIDs {
				d := plans[r].Dests[i]
				next[d] = append(next[d], id)
			}
		}
		current = next
	}
	after := avgCov(current)
	if before >= 0.5 {
		t.Fatalf("initial class-local coverage unexpectedly high: %v", before)
	}
	if after < 2.5*before {
		t.Fatalf("exchange did not homogenize shards: coverage %v -> %v", before, after)
	}
	// Shard sizes stay balanced through every epoch.
	for r := range current {
		if len(current[r]) != n/m {
			t.Fatalf("rank %d size %d after exchanges, want %d", r, len(current[r]), n/m)
		}
	}
}

func TestLocalityBlendIsBetweenExtremes(t *testing.T) {
	const n, c, m = 2048, 32, 16
	labels := labelsRoundRobin(n, c)
	cov := func(loc float64) float64 {
		parts, err := PartitionWithLocality(labels, m, loc, rng.New(1).Uint64())
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range ShardClassCoverage(parts, labels, c) {
			s += v
		}
		return s / float64(m)
	}
	c0, cHalf, c1 := cov(0), cov(0.5), cov(1)
	if !(c1 < cHalf && cHalf < c0) {
		t.Fatalf("coverage not ordered: loc0=%v loc0.5=%v loc1=%v", c0, cHalf, c1)
	}
}

// ShardClassCoverage reports, for each shard, the fraction of all classes
// present in it — the diagnostic used by the locality ablation.
func ShardClassCoverage(parts [][]int, labels []int, classes int) []float64 {
	out := make([]float64, len(parts))
	for w, part := range parts {
		seen := make([]bool, classes)
		count := 0
		for _, id := range part {
			if c := labels[id]; !seen[c] {
				seen[c] = true
				count++
			}
		}
		out[w] = float64(count) / float64(classes)
	}
	return out
}
