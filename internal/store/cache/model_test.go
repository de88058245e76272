// The external test package breaks the cache → perfmodel → shuffle → cache
// cycle that an in-package test would create (the exchange scheduler uses
// cache.SampleLRU for wire dedup).
package cache_test

import (
	"math"
	"math/rand"
	"testing"

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
// storage model against the real tier at three cache sizes: the model must
// predict a faster epoch for a bigger cache, and in the same order the tier
// must read fewer PFS bytes in its measured epoch, and the Belady oracle
// given the same plan must fetch fewer shards. The tier's fetch count stays
// within two of the oracle's and of perfmodel.CachedEpochFetches (the
// prefetcher's timing moves it by one or two from run to run). The
// ordering is asserted on bytes and fetches, not on wall-clock, so the
// verdict does not depend on the machine or the race detector.
func TestMeasuredReadTimeMatchesModelOrdering(t *testing.T) {
	pfs := ingestTempExt(t, 768, 16) // 48 shards
	man := pfs.Manifest()
	var epochBytes int64
	for _, b := range man.ShardFileBytes {
		epochBytes += b
	}
	mc := cluster.Machine{LocalSeqBW: 1e9, PFSPerClientBW: 8e6, PFSMetadataCost: 0.002}

	// measure reads two epochs through a fresh tier — the first warms the
	// cache, the second is measured — visiting shards in a fresh random
	// order each epoch, in windows of two (the corgi plan's behaviour). It
	// returns the bytes the second epoch read from the PFS and the oracle's
	// fetch count for the same plan.
	measure := func(budget int64) (pfsBytes int64, oracle int) {
		tier, err := cache.New(pfs, budget, "")
		if err != nil {
			t.Fatal(err)
		}
		defer tier.Close()
		r := rand.New(rand.NewSource(42))
		var plan [][][]int
		epoch := func() {
			ids := r.Perm(man.NumShards)
			var windows [][]int
			var order []shard.Ref
			bounds := []int{0}
			for lo := 0; lo < len(ids); lo += 2 {
				hi := min(lo+2, len(ids))
				windows = append(windows, ids[lo:hi])
				for _, sh := range ids[lo:hi] {
					for i := 0; i < man.ShardSamples(sh); i++ {
						order = append(order, shard.Ref{Shard: sh, Index: i})
					}
				}
				bounds = append(bounds, len(order))
			}
			plan = append(plan, windows)
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
		epoch()
		slots := man.NumShards
		if budget > 0 {
			slots = int(budget / man.MaxShardBytes())
		}
		return tier.Stats().PFSReadBytes - warm, cache.BeladyFetches(plan, slots, 0)[1]
	}

	budgets := []int64{epochBytes / 4, epochBytes / 2, 0} // 25%, 50%, unlimited
	var read []int64
	var oracles []int
	var predicted []float64
	for _, budget := range budgets {
		pfsBytes, oracle := measure(budget)
		read, oracles = append(read, pfsBytes), append(oracles, oracle)
		got := float64(pfsBytes) / float64(man.MaxShardBytes())
		if math.Abs(got-float64(oracle)) > 2 {
			t.Errorf("budget %d: the measured epoch fetched %.0f shards from the PFS, the oracle %d", budget, got, oracle)
		}
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
		if want, _ := perfmodel.CachedEpochFetches(w); math.Abs(got-want) > 2 {
			t.Errorf("budget %d: the measured epoch fetched %.0f shards from the PFS, the model says %.1f", budget, got, want)
		}
	}
	t.Logf("PFS bytes: 25%%=%d 50%%=%d unlimited=%d; oracle fetches %v", read[0], read[1], read[2], oracles)
	t.Logf("predicted: 25%%=%.4fs 50%%=%.4fs unlimited=%.4fs", predicted[0], predicted[1], predicted[2])

	if !(predicted[0] > predicted[1] && predicted[1] > predicted[2]) {
		t.Fatalf("model ordering broken: %v", predicted)
	}
	if !(read[0] > read[1] && read[1] > read[2]) {
		t.Fatalf("PFS bytes read contradict the model's ordering: %v", read)
	}
	if !(oracles[0] > oracles[1] && oracles[1] > oracles[2]) {
		t.Fatalf("the oracle's fetches contradict the model's ordering: %v", oracles)
	}
}
