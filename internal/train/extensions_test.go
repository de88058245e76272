package train

import (
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/trace"
)

// gapDataset builds the class-local stress setting used by the mechanism
// tests (small shards, full class locality).
func gapDataset(t testing.TB) *data.Dataset {
	t.Helper()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "mech", NumSamples: 1024, NumVal: 512, Classes: 16,
		FeatureDim: 16, ClassSep: 4, NoiseStd: 1.2, Bytes: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func gapWith(t *testing.T, ds *data.Dataset, model nn.ModelSpec, mutate func(*Config)) float64 {
	t.Helper()
	run := func(s shuffle.Strategy) float64 {
		cfg := Config{
			Workers: 16, Strategy: s, Dataset: ds, Model: model,
			Epochs: 12, BatchSize: 8, BaseLR: 0.1, Momentum: 0.9,
			WeightDecay: 1e-4, Seed: 5, PartitionLocality: 1.0,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalValAcc
	}
	return run(shuffle.GlobalShuffling()) - run(shuffle.LocalShuffling())
}

// TestFullSyncBatchNormClosesGap isolates the Section IV-A.1 mechanism:
// computing batch statistics over the global mini-batch (SyncBatchNorm)
// removes the per-shard statistics entirely and should close most of the
// LS accuracy penalty — demonstrating that the damage comes from the
// train-time batch statistics.
func TestFullSyncBatchNormClosesGap(t *testing.T) {
	ds := gapDataset(t)
	model := nn.ModelSpec{Name: "m", Hidden: []int{32}, BatchNorm: true}.
		WithData(ds.FeatureDim, ds.Classes)
	plain := gapWith(t, ds, model, nil)
	synced := gapWith(t, ds, model, func(c *Config) { c.FullSyncBatchNorm = true })
	t.Logf("LS gap: plain BN %.4f, full-sync BN %.4f", plain, synced)
	if plain < 0.04 {
		t.Fatalf("stress setting produced no baseline gap (%.4f); mechanism test void", plain)
	}
	if synced > plain*0.4 {
		t.Fatalf("SyncBatchNorm should close most of the gap: %.4f -> %.4f", plain, synced)
	}
}

// TestEpochStatsSyncIsWeaker documents the second half of the finding:
// synchronizing only the *running* statistics at epoch boundaries barely
// helps, because evaluation-time statistics are not the dominant term.
func TestEpochStatsSyncIsWeaker(t *testing.T) {
	ds := gapDataset(t)
	model := nn.ModelSpec{Name: "m", Hidden: []int{32}, BatchNorm: true}.
		WithData(ds.FeatureDim, ds.Classes)
	plain := gapWith(t, ds, model, nil)
	statsSynced := gapWith(t, ds, model, func(c *Config) { c.SyncBatchNormStats = true })
	t.Logf("LS gap: plain %.4f, epoch-stats-synced %.4f", plain, statsSynced)
	if statsSynced > plain+0.05 {
		t.Fatalf("epoch-level stats sync made things substantially worse: %.4f -> %.4f", plain, statsSynced)
	}
}

// TestGroupNormAvoidsGap checks the paper's suggested alternative: with
// per-sample group normalization there are no batch statistics to bias,
// so the LS gap shrinks versus batch norm.
func TestGroupNormAvoidsGap(t *testing.T) {
	ds := gapDataset(t)
	bnModel := nn.ModelSpec{Name: "m", Hidden: []int{32}, BatchNorm: true}.
		WithData(ds.FeatureDim, ds.Classes)
	gnModel := bnModel.WithNorm(nn.NormGroup)
	bnGap := gapWith(t, ds, bnModel, nil)
	gnGap := gapWith(t, ds, gnModel, nil)
	t.Logf("LS gap: batch norm %.4f, group norm %.4f", bnGap, gnGap)
	if bnGap < 0.04 {
		t.Fatalf("no baseline batch-norm gap (%.4f)", bnGap)
	}
	if gnGap > bnGap*0.8 {
		t.Fatalf("group norm should shrink the gap: BN %.4f vs GN %.4f", bnGap, gnGap)
	}
}

func TestSyncBNWithoutBNIsNoop(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, 4, shuffle.LocalShuffling())
	cfg.Model = nn.ModelSpec{Name: "plain", Hidden: []int{16}}.WithData(ds.FeatureDim, ds.Classes)
	cfg.SyncBatchNormStats = true
	cfg.Epochs = 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecorderReceivesEvents(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
	cfg.Epochs = 2
	rec := trace.NewRecorder()
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// 4 ranks x 2 epochs x 5 phases.
	if rec.Len() != 40 {
		t.Fatalf("trace events = %d, want 40", rec.Len())
	}
	totals := rec.PhaseTotals()
	for _, phase := range []string{trace.PhaseIO, trace.PhaseExchange, trace.PhaseFWBW, trace.PhaseGEWU, trace.PhaseValidate} {
		if _, ok := totals[phase]; !ok {
			t.Errorf("phase %q missing from trace", phase)
		}
	}
	// Exchange events carry the byte volume.
	bytes := int64(0)
	for _, e := range rec.Events() {
		if e.Phase == trace.PhaseExchange {
			bytes += e.Bytes
		}
	}
	if bytes == 0 {
		t.Fatal("exchange trace events carry no bytes")
	}
}

func TestOptimizerSelection(t *testing.T) {
	ds := testDataset(t, 256, 4)
	for _, name := range []string{"", "sgd", "lars"} {
		cfg := baseConfig(t, ds, 4, shuffle.GlobalShuffling())
		cfg.Optimizer = name
		cfg.Epochs = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if res.FinalValAcc < 0.7 {
			t.Errorf("optimizer %q accuracy %v", name, res.FinalValAcc)
		}
	}
	for _, name := range []string{"adamw", "lamb"} {
		bad := baseConfig(t, ds, 4, shuffle.GlobalShuffling())
		bad.Optimizer = name
		if _, err := Run(bad); err == nil {
			t.Fatalf("unknown optimizer %q accepted", name)
		}
	}
}
