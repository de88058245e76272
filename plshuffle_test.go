package plshuffle_test

import (
	"testing"

	"plshuffle"
)

// TestPublicAPIEndToEnd exercises the documented quick-start flow through
// the public surface only.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := plshuffle.GenerateDataset(plshuffle.DatasetSpec{
		Name: "api", NumSamples: 512, NumVal: 128,
		Classes: 8, FeatureDim: 16, ClassSep: 5, NoiseStd: 1, Bytes: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := plshuffle.MLP("api", 32).WithData(ds.FeatureDim, ds.Classes)
	for _, strat := range []plshuffle.Strategy{plshuffle.Global(), plshuffle.Local(), plshuffle.Partial(0.25)} {
		res, err := plshuffle.Train(plshuffle.TrainConfig{
			Workers: 4, Strategy: strat, Dataset: ds, Model: model,
			Epochs: 6, BatchSize: 16, BaseLR: 0.1, Momentum: 0.9, Seed: 42,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.FinalValAcc < 0.85 {
			t.Errorf("%s: accuracy %v < 0.85", strat, res.FinalValAcc)
		}
	}
}
