package cache

import (
	"testing"
	"time"

	"plshuffle/internal/store/shard"
)

// benchPFSOptions emulate a loaded PFS client: ~8 MB/s sustained with a
// 2 ms metadata cost per shard open — the cluster profiles' Lustre numbers
// scaled to laptop-sized shards.
var benchPFSOptions = shard.PFSOptions{BytesPerSec: 8e6, PerShardLatency: 2 * time.Millisecond}

// epochPlan builds a one-pass sequential plan over every shard.
func epochPlan(man shard.Manifest, perWindow int) (windows [][]int, bounds []int, order []shard.Ref) {
	for lo := 0; lo < man.NumShards; lo += perWindow {
		var win []int
		for sh := lo; sh < min(lo+perWindow, man.NumShards); sh++ {
			win = append(win, sh)
		}
		windows = append(windows, win)
	}
	bounds, order = planOf(man, windows)
	return windows, bounds, order
}

// planOf resolves windows of shards into the sample order that reads every
// sample of every window in shard order, and its window bounds.
func planOf(man shard.Manifest, windows [][]int) (bounds []int, order []shard.Ref) {
	bounds = []int{0}
	for _, win := range windows {
		for _, sh := range win {
			for i := 0; i < man.ShardSamples(sh); i++ {
				order = append(order, shard.Ref{Shard: sh, Index: i})
			}
		}
		bounds = append(bounds, len(order))
	}
	return bounds, order
}

func runEpoch(b *testing.B, tier *Tier, man shard.Manifest) {
	windows, bounds, order := epochPlan(man, 2)
	es, err := tier.OpenEpoch(windows, bounds, order)
	if err != nil {
		b.Fatal(err)
	}
	defer es.Close()
	feat := make([]float32, man.FeatureDim)
	for range order {
		if _, _, _, err := es.ReadInto(feat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochReadColdPFS reads one full epoch with a cache that can
// only hold one pinned window — every window re-fetches from the throttled
// PFS tier. This is the cold tier's service rate.
func BenchmarkEpochReadColdPFS(b *testing.B) {
	pfs := ingestTemp(b, 512, 32) // 16 shards
	pfs.SetPFSOptions(benchPFSOptions)
	man := pfs.Manifest()
	tier, err := New(pfs, 2*man.MaxShardBytes(), "")
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEpoch(b, tier, man)
	}
}

// BenchmarkEpochReadWarmCache reads the same epoch from a fully warmed
// unlimited cache: after the untimed first pass, every read is served from
// the node-local mmap'd tier and the throttled PFS is never touched.
func BenchmarkEpochReadWarmCache(b *testing.B) {
	pfs := ingestTemp(b, 512, 32)
	pfs.SetPFSOptions(benchPFSOptions)
	man := pfs.Manifest()
	tier, err := New(pfs, 0, "")
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Close()
	runEpoch(b, tier, man) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEpoch(b, tier, man)
	}
}
