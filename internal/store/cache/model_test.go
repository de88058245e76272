// Timing-ordering assertion; race-detector instrumentation skews wall-clock
// severalfold, so the whole file is compiled out under -race. The external
// test package breaks the cache → perfmodel → shuffle → cache cycle that an
// in-package test would create (the exchange scheduler uses cache.SampleLRU
// for wire dedup).
//go:build !race

package cache_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"plshuffle/internal/cluster"
	"plshuffle/internal/data"
	"plshuffle/internal/perfmodel"
	"plshuffle/internal/store/cache"
	"plshuffle/internal/store/shard"
)

func ingestTempExt(t testing.TB, n, perShard int) *shard.Dataset {
	t.Helper()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "cache-test", NumSamples: n, NumVal: 8, Classes: 4,
		FeatureDim: 16, ClassSep: 3, NoiseStd: 1, Bytes: 1000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := shard.Ingest(dir, ds, perShard); err != nil {
		t.Fatal(err)
	}
	pfs, err := shard.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	return pfs
}

// TestMeasuredReadTimeMatchesModelOrdering cross-validates the analytic
// storage model against the real tier: one epoch's read time is measured
// at three cache sizes over a throttled PFS whose rates mirror the
// machine profile handed to perfmodel.CachedEpochReadTime, and the
// measured ordering must match the predicted ordering (bigger cache →
// faster epoch). Absolute times are laptop noise; the ORDERING is the
// model's testable claim.
func TestMeasuredReadTimeMatchesModelOrdering(t *testing.T) {
	pfs := ingestTempExt(t, 768, 16) // 48 shards
	pfs.SetPFSOptions(shard.PFSOptions{BytesPerSec: 8e6, PerShardLatency: 2 * time.Millisecond})
	man := pfs.Manifest()
	var epochBytes int64
	for _, b := range man.ShardFileBytes {
		epochBytes += b
	}
	mc := cluster.Machine{LocalSeqBW: 1e9, PFSPerClientBW: 8e6, PFSMetadataCost: 0.002}

	// measure reads two epochs through a fresh tier — the first warms the
	// cache, the second is timed — visiting shards in a fresh random order
	// each epoch (the corgi plan's behaviour). It also returns the PFS bytes
	// the timed epoch fetched.
	measure := func(budget int64) (time.Duration, int64) {
		tier, err := cache.New(pfs, budget, "")
		if err != nil {
			t.Fatal(err)
		}
		defer tier.Close()
		r := rand.New(rand.NewSource(42))
		epoch := func() {
			ids := r.Perm(man.NumShards)
			var windows [][]int
			var order []shard.Ref
			bounds := []int{0}
			for lo := 0; lo < len(ids); lo += 2 {
				hi := lo + 2
				if hi > len(ids) {
					hi = len(ids)
				}
				windows = append(windows, ids[lo:hi])
				for _, sh := range ids[lo:hi] {
					for i := 0; i < man.ShardSamples(sh); i++ {
						order = append(order, shard.Ref{Shard: sh, Index: i})
					}
				}
				bounds = append(bounds, len(order))
			}
			es, err := tier.OpenEpoch(windows, bounds, order)
			if err != nil {
				t.Fatal(err)
			}
			defer es.Close()
			feat := make([]float32, man.FeatureDim)
			for range order {
				if _, _, _, err := es.ReadInto(feat); err != nil {
					t.Fatal(err)
				}
			}
		}
		epoch() // warm
		warm := tier.Stats().PFSReadBytes
		start := time.Now()
		epoch()
		return time.Since(start), tier.Stats().PFSReadBytes - warm
	}

	budgets := []int64{epochBytes / 4, epochBytes / 2, 0} // 25%, 50%, unlimited
	var measured []time.Duration
	var predicted []float64
	for _, budget := range budgets {
		took, pfsBytes := measure(budget)
		measured = append(measured, took)
		w := perfmodel.CacheWorkload{
			EpochBytes: epochBytes, ShardBytes: man.MaxShardBytes(), CacheBytes: budget, WindowShards: 2,
		}
		p, err := perfmodel.CachedEpochReadTime(mc, w)
		if err != nil {
			t.Fatal(err)
		}
		predicted = append(predicted, p)
		// The model's other output, exact up to the one term that is an
		// expectation: how many of the first window's two shards were kept.
		fetches, _ := perfmodel.CachedEpochFetches(w)
		if got := float64(pfsBytes) / float64(w.ShardBytes); math.Abs(got-fetches) > 2 {
			t.Errorf("budget %d: the timed epoch fetched %.0f shards from the PFS, the model says %.1f", budget, got, fetches)
		}
	}
	t.Logf("measured: 25%%=%v 50%%=%v unlimited=%v", measured[0], measured[1], measured[2])
	t.Logf("predicted: 25%%=%.4fs 50%%=%.4fs unlimited=%.4fs", predicted[0], predicted[1], predicted[2])

	if !(predicted[0] > predicted[1] && predicted[1] > predicted[2]) {
		t.Fatalf("model ordering broken: %v", predicted)
	}
	if !(measured[0] > measured[1] && measured[1] > measured[2]) {
		t.Fatalf("measured ordering contradicts the model: %v", measured)
	}
}
