package cache_test

import (
	"math"
	"math/rand"
	"testing"

	"plshuffle/internal/perfmodel"
	"plshuffle/internal/store/cache"
)

// TestCacheModelMatchesOracle pins perfmodel.CachedEpochFetches against
// the Belady oracle given what the tier is given (the plan to the end of
// the epoch being read): the mean steady-state fetch count over seeded
// plans, at the three cache sizes of TestMeasuredReadTimeMatchesModelOrdering
// (25 %, 50 %, the whole share), for the trainer's window rule and that
// test's windows of two, with the assignment kept and re-dealt every epoch.
func TestCacheModelMatchesOracle(t *testing.T) {
	const share, ranks, epochs, seeds = 48, 4, 4, 40
	for _, slots := range []int{share / 4, share / 2, share} {
		for _, window := range []int{slots / 2, 2} {
			for _, redeal := range []int{0, ranks} {
				var sum float64
				for seed := int64(0); seed < seeds; seed++ {
					plan := cache.DealEpochs(rand.New(rand.NewSource(seed)), share*ranks, ranks, epochs, window, redeal > 1)
					for _, n := range cache.BeladyFetches(plan, slots, 0)[1:] {
						sum += float64(n)
					}
				}
				mean := sum / (seeds * (epochs - 1))
				model, err := perfmodel.CachedEpochFetches(perfmodel.CacheWorkload{
					EpochBytes: share * 1000, ShardBytes: 1000, CacheBytes: int64(slots) * 1000,
					WindowShards: window, RedealRanks: redeal,
				})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(mean-model) > 1 {
					t.Errorf("slots=%d window=%d redeal=%d: oracle fetches %.2f shards an epoch, the model says %.2f",
						slots, window, redeal, mean, model)
				}
			}
		}
	}
}
