package experiments

import (
	"fmt"
	"math"

	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/train"
)

// scalePoint is one subplot of an accuracy figure: a proxy worker count
// standing in for a paper-scale GPU count, with the strategies compared
// there.
type scalePoint struct {
	Workers    int
	PaperLabel string // e.g. "2048 GPUs"
	Strategies []shuffle.Strategy
	Batch      int    // overrides the spec batch when non-zero
	Optimizer  string // train.Config.Optimizer; the paper applies LARS at large scale
}

// accuracySpec configures one accuracy experiment (one Figure 5/6/7a/8
// panel family).
type accuracySpec struct {
	ID         string
	Title      string
	DatasetKey string
	Model      string
	Scales     []scalePoint
	Epochs     int
	Batch      int
	BaseLR     float32
	// LocalityCoef calibrates shard-statistics divergence: the partition
	// class-locality used at a scale with S samples per worker is
	// min(1, LocalityCoef/sqrt(S)), encoding that small shards of real
	// (heavy-tailed, clustered) data diverge from the global distribution
	// roughly as 1/sqrt(S). The coefficient is calibrated per
	// (dataset, model) pair because the paper's observed sensitivity is
	// model-dependent (Fig 5c vs 5f) and an MLP proxy cannot reproduce
	// conv-architecture differences endogenously; EXPERIMENTS.md records
	// each value.
	LocalityCoef float64
	// ShortEpochs overrides the default shortened epoch count (Epochs/3)
	// for experiments whose dynamics need a minimum horizon — e.g. Q=0.1
	// recovery, where after E epochs a (0.9)^E fraction of the original
	// shard is still in place.
	ShortEpochs int
	// Pretrain warm-starts every run from a short global-shuffling
	// pretraining pass (the paper's pretrained ResNet50 for Stanford Cars).
	Pretrain bool
	// LocalitySweep, when set, adds a table of local-shuffling accuracy at
	// the last scale for each of these partition localities: the
	// calibration curve behind LocalityCoef.
	LocalitySweep []float64
	Notes         []string
}

// localityAt returns the partition locality for a scale with the given
// samples-per-worker count.
func (s accuracySpec) localityAt(samplesPerWorker int) float64 {
	if s.LocalityCoef <= 0 {
		return 0
	}
	return math.Min(1, s.LocalityCoef/math.Sqrt(float64(samplesPerWorker)))
}

func (s accuracySpec) epochs(opts Options) int {
	if opts.Short {
		if s.ShortEpochs > 0 {
			return s.ShortEpochs
		}
		e := s.Epochs / 3
		if e < 4 {
			e = 4
		}
		return e
	}
	return s.Epochs
}

// runAccuracy executes the spec: real distributed SGD per (scale,
// strategy), one figure per scale (validation accuracy vs epoch) plus a
// final-accuracy summary table, and the LocalitySweep table when set.
func runAccuracy(spec accuracySpec, opts Options) (*Result, error) {
	ds, err := data.LoadProxy(spec.DatasetKey)
	if err != nil {
		return nil, err
	}
	modelSpec, err := nn.ProxySpec(spec.Model)
	if err != nil {
		return nil, err
	}
	modelSpec = modelSpec.WithData(ds.FeatureDim, ds.Classes)
	epochs := spec.epochs(opts)
	res := &Result{ID: spec.ID, Title: spec.Title, Notes: spec.Notes}
	summary := newTable(fmt.Sprintf("%s: final top-1 validation accuracy (%d epochs)", spec.ID, epochs))
	summary.Header("scale", "strategy", "final acc", "best acc", "peak storage/worker")
	var warm []nn.Param // train.Run copies it into each worker, so runs share it
	if spec.Pretrain {
		if warm, err = pretrainWeights(ds, modelSpec, opts); err != nil {
			return nil, err
		}
	}

	// run trains one strategy at one scale and partition locality.
	run := func(sc scalePoint, strat shuffle.Strategy, loc float64) (*train.Result, error) {
		batch := spec.Batch
		if sc.Batch != 0 {
			batch = sc.Batch
		}
		cfg := train.Config{
			Workers:           sc.Workers,
			Strategy:          strat,
			Dataset:           ds,
			Model:             modelSpec,
			Epochs:            epochs,
			BatchSize:         batch,
			BaseLR:            spec.BaseLR,
			Momentum:          0.9,
			WeightDecay:       1e-4,
			Optimizer:         sc.Optimizer,
			Seed:              opts.seed(),
			PartitionLocality: loc,
			WarmStart:         warm,
			Schedule: nn.StepDecay{
				Base: spec.BaseLR, Gamma: 0.2,
				Milestones: []float64{float64(epochs) * 0.5, float64(epochs) * 0.75},
			},
		}
		if sc.Optimizer == "lars" {
			cfg.Schedule = nn.Warmup{Inner: cfg.Schedule, Epochs: float64(epochs) / 8, StartFactor: 0.25}
		}
		r, err := train.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s %s M=%d: %w", spec.ID, strat, sc.Workers, err)
		}
		return r, nil
	}

	for _, sc := range spec.Scales {
		fig := newFigure(
			fmt.Sprintf("%s — %s (proxy M=%d)", spec.Title, sc.PaperLabel, sc.Workers),
			"epoch", "top-1 accuracy")
		for _, strat := range sc.Strategies {
			r, err := run(sc, strat, spec.localityAt(len(ds.Train)/sc.Workers))
			if err != nil {
				return nil, err
			}
			series := fig.AddSeries(strat.String())
			for _, e := range r.Epochs {
				series.Add(float64(e.Epoch+1), e.ValAcc)
			}
			summary.Row(sc.PaperLabel, strat.String(),
				fmt.Sprintf("%.4f", r.FinalValAcc),
				fmt.Sprintf("%.4f", r.BestValAcc),
				formatBytes(r.PeakStorageBytes))
		}
		res.Figures = append(res.Figures, fig)
	}
	res.Tables = append(res.Tables, summary)

	if len(spec.LocalitySweep) > 0 {
		sc := spec.Scales[len(spec.Scales)-1]
		sweep := newTable(fmt.Sprintf("%s: local-shuffling accuracy vs partition locality (%s, proxy M=%d, %d epochs)",
			spec.ID, sc.PaperLabel, sc.Workers, epochs))
		sweep.Header("locality", "final acc")
		for _, loc := range spec.LocalitySweep {
			r, err := run(sc, shuffle.LocalShuffling(), loc)
			if err != nil {
				return nil, err
			}
			sweep.Row(fmt.Sprintf("%g", loc), fmt.Sprintf("%.4f", r.FinalValAcc))
		}
		res.Tables = append(res.Tables, sweep)
	}
	return res, nil
}

// pretrainWeights runs a short global-shuffling pretraining pass and
// returns the resulting weights (Figure 5d's pretrained model).
func pretrainWeights(ds *data.Dataset, modelSpec nn.ModelSpec, opts Options) ([]nn.Param, error) {
	r, err := train.Run(train.Config{
		Workers: 4, Strategy: shuffle.GlobalShuffling(), Dataset: ds,
		Model: modelSpec, Epochs: 4, BatchSize: 32, BaseLR: 0.05,
		Momentum: 0.9, WeightDecay: 1e-4, Seed: opts.seed() + 17,
	})
	if err != nil {
		return nil, err
	}
	return r.FinalParams, nil
}

func gsLsPartial(qs ...float64) []shuffle.Strategy {
	out := []shuffle.Strategy{shuffle.GlobalShuffling(), shuffle.LocalShuffling()}
	for _, q := range qs {
		out = append(out, shuffle.Partial(q))
	}
	return out
}

// Fig5a: ResNet50 on ImageNet-1K at 512 and 2048 GPUs. LS matches GS at
// 512; at 2048 a gap opens (paper: ~9%) and partial-0.3 restores accuracy.
func Fig5a(opts Options) (*Result, error) {
	return runAccuracy(accuracySpec{
		ID: "fig5a", Title: "ResNet50 / ImageNet-1K (ABCI)",
		DatasetKey: "imagenet-1k", Model: "resnet50",
		Scales: []scalePoint{
			{Workers: 8, PaperLabel: "512 GPUs", Strategies: gsLsPartial()},
			{Workers: 32, PaperLabel: "2048 GPUs", Strategies: gsLsPartial(0.3)},
		},
		Epochs: 18, Batch: 16, BaseLR: 0.05, LocalityCoef: 12,
		Notes: []string{"paper: LS == GS at 512 GPUs; ~9% gap at 2048 GPUs closed by partial-0.3."},
	}, opts)
}

// Fig5b: DenseNet161 on ImageNet-1K — LS matches GS at both scales.
func Fig5b(opts Options) (*Result, error) {
	return runAccuracy(accuracySpec{
		ID: "fig5b", Title: "DenseNet161 / ImageNet-1K (ABCI)",
		DatasetKey: "imagenet-1k", Model: "densenet161",
		Scales: []scalePoint{
			{Workers: 8, PaperLabel: "256 GPUs", Strategies: gsLsPartial()},
			{Workers: 16, PaperLabel: "1024 GPUs", Strategies: gsLsPartial()},
		},
		Epochs: 18, Batch: 16, BaseLR: 0.05, LocalityCoef: 8,
		Notes: []string{"paper: local shuffling achieves the same accuracy as global shuffling."},
	}, opts)
}

// Fig5c: WideResNet-28 on CIFAR-100 — LS matches GS even though each of
// the 128 workers only holds ~390 samples.
func Fig5c(opts Options) (*Result, error) {
	return runAccuracy(accuracySpec{
		ID: "fig5c", Title: "WideResNet-28 / CIFAR-100 (ABCI)",
		DatasetKey: "cifar-100", Model: "wideresnet28",
		Scales: []scalePoint{
			{Workers: 16, PaperLabel: "128 GPUs", Strategies: gsLsPartial()},
		},
		Epochs: 18, Batch: 16, BaseLR: 0.05, LocalityCoef: 6,
		Notes: []string{"paper: same accuracy for local and global shuffling (the wide, shallow model is robust)."},
	}, opts)
}

// Fig5d: pretrained ResNet50 fine-tuned on Stanford Cars — LS matches GS.
func Fig5d(opts Options) (*Result, error) {
	return runAccuracy(accuracySpec{
		ID: "fig5d", Title: "ResNet50 (pretrained) / Stanford Cars (ABCI)",
		DatasetKey: "stanford-cars", Model: "resnet50",
		Scales: []scalePoint{
			{Workers: 16, PaperLabel: "64 GPUs", Strategies: gsLsPartial()},
		},
		Epochs: 12, Batch: 8, BaseLR: 0.01, LocalityCoef: 4, Pretrain: true,
		Notes: []string{"paper: fine-tuning from a pretrained model; ~128 samples per worker, yet LS == GS."},
	}, opts)
}

// Fig5e: ResNet50 on ImageNet-50 — the most shuffle-sensitive case: up to
// a 30% gap at 128 GPUs; an exchange rate of 0.7 is needed to approach GS.
func Fig5e(opts Options) (*Result, error) {
	return runAccuracy(accuracySpec{
		ID: "fig5e", Title: "ResNet50 / ImageNet-50 (ABCI)",
		DatasetKey: "imagenet-50", Model: "resnet50",
		Scales: []scalePoint{
			{Workers: 8, PaperLabel: "32 GPUs", Strategies: gsLsPartial(0.3)},
			{Workers: 32, PaperLabel: "128 GPUs", Strategies: gsLsPartial(0.1, 0.3, 0.7)},
		},
		Epochs: 20, ShortEpochs: 10, Batch: 16, BaseLR: 0.05, LocalityCoef: 18,
		LocalitySweep: []float64{0, 0.5, 1},
		Notes:         []string{"paper: ~10% LS gap at 32 GPUs, up to 30% at 128 GPUs; partial-0.7 required to approach GS."},
	}, opts)
}

// Fig5f: Inception-v4 on CIFAR-100 — unlike WideResNet (Fig 5c), the
// deeper batch-norm stack degrades under LS; partial-0.3 restores it.
func Fig5f(opts Options) (*Result, error) {
	return runAccuracy(accuracySpec{
		ID: "fig5f", Title: "Inception-v4 / CIFAR-100 (ABCI)",
		DatasetKey: "cifar-100", Model: "inceptionv4",
		Scales: []scalePoint{
			{Workers: 16, PaperLabel: "128 GPUs", Strategies: gsLsPartial(0.1, 0.3)},
		},
		Epochs: 18, Batch: 8, BaseLR: 0.03, LocalityCoef: 17,
		Notes: []string{"paper: some models are more sensitive to sample diversity — Inception-v4 degrades under LS on the same dataset where WideResNet-28 does not."},
	}, opts)
}

// Fig6: strong scaling of ResNet50/ImageNet-1K on Fugaku with a fixed
// global batch (65,536 in the paper): LS accuracy decreases as workers
// grow (292 samples/worker at 4,096), partial-0.1 restores GS accuracy.
func Fig6(opts Options) (*Result, error) {
	scales := []scalePoint{
		{Workers: 16, PaperLabel: "2048 workers", Strategies: gsLsPartial(0.1), Batch: 16, Optimizer: "lars"},
		{Workers: 64, PaperLabel: "4096 workers", Strategies: gsLsPartial(0.1), Batch: 4, Optimizer: "lars"},
	}
	if opts.Short {
		// Half the world at the same global batch: half the worker-steps
		// per epoch, which small-batch training time follows.
		scales[0].Workers, scales[0].Batch = 8, 32
		scales[1].Workers, scales[1].Batch = 32, 8
	}
	return runAccuracy(accuracySpec{
		ID: "fig6", Title: "ResNet50 / ImageNet-1K strong scaling (Fugaku, fixed global batch)",
		DatasetKey: "imagenet-1k", Model: "resnet50",
		Scales: scales,
		Epochs: 20, ShortEpochs: 8, Batch: 16, BaseLR: 0.08, LocalityCoef: 12,
		Notes: []string{
			"global batch is fixed (proxy 256 samples) while workers grow; paper: LS decreases with scale, partial-0.1 matches GS up to 4,096 workers storing only ~0.03% of the dataset each.",
		},
	}, opts)
}

// Fig7a: DeepCAM validation accuracy — the dataset does not fit local
// storage, so there is no GS baseline; partial shuffling improves over LS
// by ~2% at 1,024 GPUs and ~1% at 2,048 GPUs.
func Fig7a(opts Options) (*Result, error) {
	return runAccuracy(accuracySpec{
		ID: "fig7a", Title: "DeepCAM validation accuracy (ABCI, no GS baseline)",
		DatasetKey: "deepcam", Model: "deepcam",
		Scales: []scalePoint{
			{Workers: 16, PaperLabel: "1024 GPUs", Strategies: []shuffle.Strategy{
				shuffle.LocalShuffling(), shuffle.Partial(0.25), shuffle.Partial(0.5), shuffle.Partial(0.9),
			}},
			{Workers: 32, PaperLabel: "2048 GPUs", Strategies: []shuffle.Strategy{
				shuffle.LocalShuffling(), shuffle.Partial(0.9),
			}},
		},
		Epochs: 16, Batch: 8, BaseLR: 0.03, LocalityCoef: 6,
		Notes: []string{
			"DeepCAM (8.2 TiB) cannot be replicated to local storage, so the paper reports no global-shuffling accuracy; partial shuffling improves on pure local access.",
		},
	}, opts)
}

// Fig8 regenerates the pretrain/fine-tune experiment: upstream training of
// ResNet50 on ImageNet-21K (where LS lags GS by ~3% at 2,048 GPUs) followed
// by downstream fine-tuning on ImageNet-1K, where the difference vanishes.
func Fig8(opts Options) (*Result, error) {
	up, err := data.LoadProxy("imagenet-21k")
	if err != nil {
		return nil, err
	}
	down, err := data.LoadProxy("imagenet-1k")
	if err != nil {
		return nil, err
	}
	modelUp, err := nn.ProxySpec("resnet50")
	if err != nil {
		return nil, err
	}
	upSpec := modelUp.WithData(up.FeatureDim, up.Classes)
	downSpec := modelUp.WithData(down.FeatureDim, down.Classes)

	epochs := 18
	downEpochs := 12
	if opts.Short {
		epochs, downEpochs = 6, 4
	}
	res := &Result{ID: "fig8", Title: "Upstream ImageNet-21K pretraining, downstream ImageNet-1K fine-tuning"}
	upFig := newFigure("Figure 8(a): upstream top-1 accuracy (proxy M=24)", "epoch", "top-1 accuracy")
	downFig := newFigure("Figure 8(b): downstream top-1 accuracy (proxy M=8)", "epoch", "top-1 accuracy")
	summary := newTable("fig8: upstream vs downstream final accuracy")
	summary.Header("upstream strategy", "upstream acc", "downstream acc")

	for _, strat := range gsLsPartial(0.1) {
		upRes, err := train.Run(train.Config{
			Workers: 24, Strategy: strat, Dataset: up, Model: upSpec,
			Epochs: epochs, BatchSize: 16, BaseLR: 0.05, Momentum: 0.9,
			WeightDecay: 1e-4, Seed: opts.seed(), PartitionLocality: 0.9,
			Schedule: nn.StepDecay{Base: 0.05, Gamma: 0.2,
				Milestones: []float64{float64(epochs) * 0.5, float64(epochs) * 0.75}},
		})
		if err != nil {
			return nil, fmt.Errorf("fig8 upstream %s: %w", strat, err)
		}
		s := upFig.AddSeries(strat.String())
		for _, e := range upRes.Epochs {
			s.Add(float64(e.Epoch+1), e.ValAcc)
		}

		// Downstream: transfer the hidden layers (the classifier head has
		// a different class count) and fine-tune with global shuffling.
		warm, err := downSpec.Build(opts.seed(), 1)
		if err != nil {
			return nil, err
		}
		nn.TransferWeights(warm.Params(), upRes.FinalParams)
		downRes, err := train.Run(train.Config{
			Workers: 8, Strategy: shuffle.GlobalShuffling(), Dataset: down,
			Model: downSpec, Epochs: downEpochs, BatchSize: 16, BaseLR: 0.02,
			Momentum: 0.9, WeightDecay: 1e-4, Seed: opts.seed() + 3,
			WarmStart: warm.Params(),
		})
		if err != nil {
			return nil, fmt.Errorf("fig8 downstream after %s: %w", strat, err)
		}
		sd := downFig.AddSeries("upstream-" + strat.String())
		for _, e := range downRes.Epochs {
			sd.Add(float64(e.Epoch+1), e.ValAcc)
		}
		summary.Row(strat.String(),
			fmt.Sprintf("%.4f", upRes.FinalValAcc),
			fmt.Sprintf("%.4f", downRes.FinalValAcc))
	}
	res.Figures = []*Figure{upFig, downFig}
	res.Tables = []*Table{summary}
	res.Notes = []string{
		"paper: upstream LS lags GS by ~3% at 2,048 GPUs, but downstream fine-tuning accuracy is unaffected — (partial) local shuffling can cut pretraining cost without hurting the final task.",
	}
	return res, nil
}
