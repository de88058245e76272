package experiments

import (
	"fmt"

	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/train"
)

// AutoQTable regenerates the closed-loop controller headline (DESIGN.md
// §16): global shuffling, hand-tuned fixed-Q partial shuffling, and the
// self-tuning auto-Q controller on the same proxy, comparing final accuracy
// against per-epoch data movement. GS moves the whole epoch through the PFS
// (its "wire" is PFSReadBytes); PLS moves only the Q-fraction exchange
// (ExchangeBytes). The controller should land at GS-parity accuracy with a
// fraction of GS's bytes — and with no hand-picked Q: the trajectory the
// table prints is decided online, identically on every rank.
func AutoQTable(opts Options) (*Result, error) {
	const datasetKey = "imagenet-50"
	ds, err := data.LoadProxy(datasetKey)
	if err != nil {
		return nil, err
	}
	modelSpec, err := nn.ProxySpec("resnet50")
	if err != nil {
		return nil, err
	}
	modelSpec = modelSpec.WithData(ds.FeatureDim, ds.Classes)
	const workers = 4
	epochs := 12
	if opts.Short {
		epochs = 6
	}

	base := func(strat shuffle.Strategy) train.Config {
		return train.Config{
			Workers:           workers,
			Strategy:          strat,
			Dataset:           ds,
			Model:             modelSpec,
			Epochs:            epochs,
			BatchSize:         16,
			BaseLR:            0.05,
			Momentum:          0.9,
			WeightDecay:       1e-4,
			Seed:              opts.seed(),
			PartitionLocality: 0.3,
		}
	}

	type outcome struct {
		label      string
		res        *train.Result
		moved      int64 // per-run data movement: PFS reads for GS, exchange for PLS
		trajectory string
	}
	var runs []outcome

	gs, err := train.Run(base(shuffle.GlobalShuffling()))
	if err != nil {
		return nil, err
	}
	var gsBytes int64
	for _, e := range gs.Epochs {
		gsBytes += e.PFSReadBytes
	}
	runs = append(runs, outcome{label: "global", res: gs, moved: gsBytes})

	fixed, err := train.Run(base(shuffle.Partial(0.2)))
	if err != nil {
		return nil, err
	}
	var fxBytes int64
	for _, e := range fixed.Epochs {
		fxBytes += e.ExchangeBytes
	}
	runs = append(runs, outcome{label: "partial-0.2 (fixed)", res: fixed, moved: fxBytes})

	autoCfg := base(shuffle.Partial(0.2))
	autoCfg.AutoQ = true
	autoRes, err := train.Run(autoCfg)
	if err != nil {
		return nil, err
	}
	var aBytes int64
	traj := ""
	for _, e := range autoRes.Epochs {
		aBytes += e.ExchangeBytes
		traj += fmt.Sprintf(" %g(%s)", e.ControllerQ, e.ControllerReason)
	}
	runs = append(runs, outcome{label: "partial auto-Q", res: autoRes, moved: aBytes, trajectory: traj})

	tb := newTable(fmt.Sprintf("Self-tuning Q: accuracy vs data movement (%s, M=%d, %d epochs)", datasetKey, workers, epochs))
	tb.Header("strategy", "final acc", "best acc", "data moved", "vs GS")
	for _, r := range runs {
		ratio := "1.00x"
		if gsBytes > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(r.moved)/float64(gsBytes))
		}
		tb.Row(r.label,
			fmt.Sprintf("%.4f", r.res.FinalValAcc),
			fmt.Sprintf("%.4f", r.res.BestValAcc),
			formatBytes(r.moved), ratio)
	}
	notes := []string{
		"GS's data movement is its per-epoch PFS re-read; PLS moves only the Q-fraction exchange (simulated Sample.Bytes on both sides).",
		"auto-Q trajectory:" + runs[2].trajectory + " — decided online from gathered label-skew and modeled comm/compute stats, no hand-tuned Q.",
	}
	return &Result{
		ID:     "autoq",
		Title:  "Closed-loop shuffle controller vs GS and fixed Q",
		Tables: []*Table{tb},
		Notes:  notes,
	}, nil
}
