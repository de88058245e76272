package train

import (
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
)

// testDataset builds a small learnable dataset quickly.
func testDataset(t testing.TB, n, classes int) *data.Dataset {
	t.Helper()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "train-test", NumSamples: n, NumVal: n / 4, Classes: classes,
		FeatureDim: 16, ClassSep: 5, NoiseStd: 1.0, Bytes: 1000, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func baseConfig(t testing.TB, ds *data.Dataset, workers int, strat shuffle.Strategy) Config {
	t.Helper()
	return Config{
		Workers:  workers,
		Strategy: strat,
		Dataset:  ds,
		Model: nn.ModelSpec{Name: "t", Hidden: []int{32}, BatchNorm: true}.
			WithData(ds.FeatureDim, ds.Classes),
		Epochs:      5,
		BatchSize:   16,
		BaseLR:      0.1,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		Seed:        5,
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	ds := testDataset(t, 256, 4)
	good := baseConfig(t, ds, 4, shuffle.GlobalShuffling())
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(c *Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.Dataset = nil },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.BaseLR = 0 },
		func(c *Config) { c.Strategy = shuffle.Partial(2) },
		func(c *Config) { c.Model.InputDim = 0 },
		func(c *Config) { c.Workers = 10000 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGlobalTrainingLearns(t *testing.T) {
	ds := testDataset(t, 512, 4)
	res, err := Run(baseConfig(t, ds, 4, shuffle.GlobalShuffling()))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValAcc < 0.9 {
		t.Fatalf("GS validation accuracy %v, want >= 0.9 on easy task", res.FinalValAcc)
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("epochs recorded: %d", len(res.Epochs))
	}
	// Loss should decrease from first to last epoch.
	if res.Epochs[4].TrainLoss >= res.Epochs[0].TrainLoss {
		t.Fatalf("loss did not decrease: %v -> %v", res.Epochs[0].TrainLoss, res.Epochs[4].TrainLoss)
	}
}

func TestAllStrategiesLearnOnEasyTask(t *testing.T) {
	ds := testDataset(t, 512, 4)
	for _, strat := range []shuffle.Strategy{
		shuffle.GlobalShuffling(), shuffle.LocalShuffling(), shuffle.Partial(0.3),
	} {
		res, err := Run(baseConfig(t, ds, 4, strat))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.FinalValAcc < 0.9 {
			t.Errorf("%s: accuracy %v < 0.9", strat, res.FinalValAcc)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
	cfg.Epochs = 3
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Epochs {
		if a.Epochs[i].TrainLoss != b.Epochs[i].TrainLoss {
			t.Fatalf("epoch %d loss differs across identical runs: %v vs %v",
				i, a.Epochs[i].TrainLoss, b.Epochs[i].TrainLoss)
		}
		if a.Epochs[i].ValAcc != b.Epochs[i].ValAcc {
			t.Fatalf("epoch %d accuracy differs across identical runs", i)
		}
	}
}

func TestByteAccounting(t *testing.T) {
	ds := testDataset(t, 256, 4)

	gs, err := Run(baseConfig(t, ds, 4, shuffle.GlobalShuffling()))
	if err != nil {
		t.Fatal(err)
	}
	e := gs.Epochs[0]
	// GS reads only from the PFS: 64 samples x 1000 bytes per worker.
	if e.PFSReadBytes != 64_000 || e.LocalReadBytes != 0 {
		t.Fatalf("GS bytes: pfs=%d local=%d", e.PFSReadBytes, e.LocalReadBytes)
	}
	if e.ExchangeBytes != 0 {
		t.Fatalf("GS exchanged %d bytes", e.ExchangeBytes)
	}

	ls, err := Run(baseConfig(t, ds, 4, shuffle.LocalShuffling()))
	if err != nil {
		t.Fatal(err)
	}
	e = ls.Epochs[0]
	if e.LocalReadBytes != 64_000 || e.PFSReadBytes != 0 {
		t.Fatalf("LS bytes: pfs=%d local=%d", e.PFSReadBytes, e.LocalReadBytes)
	}

	pls, err := Run(baseConfig(t, ds, 4, shuffle.Partial(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	e = pls.Epochs[0]
	want := int64(shuffle.Slots(0.5, 256, 4)) * 1000
	if e.ExchangeBytes != want {
		t.Fatalf("PLS exchanged %d bytes, want %d", e.ExchangeBytes, want)
	}
	if e.LocalReadBytes != 64_000 {
		t.Fatalf("PLS local reads %d", e.LocalReadBytes)
	}
}

func TestPeakStorageBound(t *testing.T) {
	ds := testDataset(t, 256, 4)
	const q = 0.5
	res, err := Run(baseConfig(t, ds, 4, shuffle.Partial(q)))
	if err != nil {
		t.Fatal(err)
	}
	perWorker := int64(256/4) * 1000
	bound := int64(float64(perWorker) * (1 + q))
	if res.PeakStorageBytes > bound {
		t.Fatalf("peak storage %d exceeds (1+Q)N/M = %d", res.PeakStorageBytes, bound)
	}
	if res.PeakStorageBytes <= perWorker {
		t.Fatalf("peak storage %d never exceeded N/M=%d", res.PeakStorageBytes, perWorker)
	}
}

func TestWarmStartUsesGivenWeights(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, 4, shuffle.GlobalShuffling())
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fine-tune from the trained weights with zero additional epochs of
	// drift: 1 epoch at tiny LR should keep high accuracy from epoch 1.
	cfg2 := cfg
	cfg2.WarmStart = first.FinalParams
	cfg2.Epochs = 1
	cfg2.BaseLR = 1e-4
	second, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if second.Epochs[0].ValAcc < first.FinalValAcc-0.05 {
		t.Fatalf("warm start accuracy %v, expected near %v", second.Epochs[0].ValAcc, first.FinalValAcc)
	}
}

// TestLocalityGapAndPartialRecovery is the scientific core: with
// class-local shards, local shuffling loses accuracy while partial local
// shuffling with a sufficient exchange fraction recovers it (the Fig 5(e)
// shape at test scale).
func TestLocalityGapAndPartialRecovery(t *testing.T) {
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "gap", NumSamples: 1024, NumVal: 512, Classes: 16,
		FeatureDim: 16, ClassSep: 4, NoiseStd: 1.2, Bytes: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(strat shuffle.Strategy) float64 {
		cfg := baseConfig(t, ds, 16, strat)
		cfg.Epochs = 12
		cfg.BatchSize = 8
		cfg.PartitionLocality = 1.0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalValAcc
	}
	gs := run(shuffle.GlobalShuffling())
	ls := run(shuffle.LocalShuffling())
	pls := run(shuffle.Partial(0.7))
	t.Logf("gs=%.3f ls=%.3f partial-0.7=%.3f", gs, ls, pls)
	if gs-ls < 0.05 {
		t.Fatalf("expected a local-shuffling gap: gs=%.3f ls=%.3f", gs, ls)
	}
	if pls-ls < (gs-ls)/2 {
		t.Fatalf("partial-0.7 did not recover at least half the gap: gs=%.3f ls=%.3f pls=%.3f", gs, ls, pls)
	}
}

func TestPartitionLocalityZeroMatchesPartition(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, 4, shuffle.LocalShuffling())
	cfg.Epochs = 2
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PartitionLocality = 0
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Epochs {
		if a.Epochs[i].TrainLoss != b.Epochs[i].TrainLoss {
			t.Fatal("locality=0 does not match default partition")
		}
	}
}

func TestLARSRuns(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, 4, shuffle.GlobalShuffling())
	cfg.Optimizer = "lars"
	cfg.Schedule = nn.Warmup{Inner: nn.Constant{Base: cfg.BaseLR}, Epochs: 2, StartFactor: 0.25}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValAcc < 0.5 {
		t.Fatalf("LARS run accuracy %v", res.FinalValAcc)
	}
}

func TestPhaseTimesRecorded(t *testing.T) {
	ds := testDataset(t, 256, 4)
	res, err := Run(baseConfig(t, ds, 4, shuffle.Partial(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	e := res.Epochs[0]
	if e.FWBWTime <= 0 || e.GEWUTime <= 0 || e.IOTime <= 0 {
		t.Fatalf("phase times missing: %+v", e)
	}
}

func TestOddWorkerCountAndNonDivisibleN(t *testing.T) {
	ds := testDataset(t, 250, 5) // 250 samples over 3 workers
	cfg := baseConfig(t, ds, 3, shuffle.Partial(0.4))
	cfg.BatchSize = 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValAcc <= 0.2 {
		t.Fatalf("non-divisible config failed to learn: %v", res.FinalValAcc)
	}
}

func BenchmarkTrainEpochGS(b *testing.B)  { benchTrain(b, shuffle.GlobalShuffling()) }
func BenchmarkTrainEpochPLS(b *testing.B) { benchTrain(b, shuffle.Partial(0.3)) }

func benchTrain(b *testing.B, strat shuffle.Strategy) {
	ds := testDataset(b, 512, 4)
	cfg := baseConfig(b, ds, 4, strat)
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
