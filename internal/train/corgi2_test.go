package train

import (
	"math"
	"path/filepath"
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store/shard"
)

// ingestTestDataset generates a learnable dataset and ingests it into a
// temp directory, returning the directory.
func ingestTestDataset(t testing.TB, n, classes, samplesPerShard int) string {
	t.Helper()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "corgi-test", NumSamples: n, NumVal: n / 4, Classes: classes,
		FeatureDim: 16, ClassSep: 5, NoiseStd: 1.0, Bytes: 1000, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "dataset")
	if _, err := shard.Ingest(dir, ds, samplesPerShard); err != nil {
		t.Fatal(err)
	}
	return dir
}

func corgiConfig(dir string, workers int) Config {
	return Config{
		Workers:  workers,
		Strategy: shuffle.Corgi2Shuffling(2),
		DataDir:  dir,
		Model: nn.ModelSpec{Name: "t", Hidden: []int{32}, BatchNorm: true}.
			WithData(16, 4),
		Epochs:      5,
		BatchSize:   16,
		BaseLR:      0.1,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		Seed:        5,
	}
}

// TestCorgi2TrainsAndLearns runs the full hybrid path end-to-end in-process
// and checks that the model actually learns from the on-disk store.
func TestCorgi2TrainsAndLearns(t *testing.T) {
	dir := ingestTestDataset(t, 512, 4, 32)
	res, err := Run(corgiConfig(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValAcc < 0.5 {
		t.Fatalf("corgi2 final accuracy %.3f, want at least 0.5", res.FinalValAcc)
	}
	if res.PeakStorageBytes <= 0 {
		t.Fatalf("peak storage not accounted: %d", res.PeakStorageBytes)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.LocalReadBytes <= 0 {
		t.Fatalf("local (cache) read bytes not accounted: %d", last.LocalReadBytes)
	}
	if res.Epochs[0].PFSReadBytes <= 0 {
		t.Fatalf("first epoch fetched nothing from the PFS tier")
	}
}

// TestCorgi2BitwiseDeterministic trains the same corgi2 world twice per
// configuration — once with an unlimited cache, once under a tight budget
// where evictions and refetches happen — and requires bitwise-identical
// weights within each pair: the cache's runtime behaviour (hit/miss
// timing, eviction order, prefetch races) must never leak into values.
// (Different budgets legitimately produce different weights: the window
// size, Corgi²'s online-shuffle mixing radius, is derived from the budget
// and is part of the epoch plan.)
func TestCorgi2BitwiseDeterministic(t *testing.T) {
	dir := ingestTestDataset(t, 512, 4, 32)

	run := func(cacheBytes int64) []float32 {
		cfg := corgiConfig(dir, 4)
		cfg.CacheBytes = cacheBytes
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var flat []float32
		for _, p := range res.FinalParams {
			flat = append(flat, p.W...)
		}
		if len(flat) == 0 {
			t.Fatal("no parameters")
		}
		return flat
	}
	assertSame := func(label string, a, b []float32) {
		if len(a) != len(b) {
			t.Fatalf("%s: parameter count mismatch: %d vs %d", label, len(a), len(b))
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s: runs diverge at param %d: %x vs %x",
					label, i, math.Float32bits(a[i]), math.Float32bits(b[i]))
			}
		}
	}

	assertSame("unlimited cache", run(0), run(0))
	// Budget for ~3 shards out of each rank's 4: evictions and refetches
	// happen, weights must not move between the two runs.
	man, err := shard.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	tight := 3 * man.Manifest().MaxShardBytes()
	assertSame("tight cache", run(tight), run(tight))
}

// TestCorgi2ValidateRejections covers the configurations the hybrid path
// cannot honor.
func TestCorgi2ValidateRejections(t *testing.T) {
	dir := ingestTestDataset(t, 256, 4, 32)
	cases := []func(c *Config){
		func(c *Config) { c.DataDir = "" },
		func(c *Config) { c.OnPeerFail = "degrade" },
		func(c *Config) { c.PartitionLocality = 0.5 },
		func(c *Config) { c.Strategy.GroupEpochs = 0 },
	}
	for i, mutate := range cases {
		cfg := corgiConfig(dir, 4)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad corgi2 config accepted", i)
		}
	}
}
