// Package experiments defines one runnable configuration per table and
// figure of the paper's evaluation (Section V). cmd/experiments runs them,
// and TestPaperShapes checks each one's shape in its short form. Accuracy
// figures run real distributed SGD on the scaled-down proxies;
// performance figures evaluate the calibrated analytic model at the
// paper's scales (see DESIGN.md §2 and §4 for the substitution rationale
// and the per-experiment index).
package experiments

import (
	"fmt"
	"io"

	"plshuffle/internal/analysis"
	"plshuffle/internal/cluster"
	"plshuffle/internal/data"
	"plshuffle/internal/metrics"
	"plshuffle/internal/perfmodel"
	"plshuffle/internal/shuffle"
)

// Options tunes an experiment run.
type Options struct {
	// Short runs a reduced number of epochs for quick smoke runs.
	Short bool
	// Seed overrides the default experiment seed when non-zero.
	Seed uint64
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 2022 // IPDPS 2022
}

// Result is one experiment's regenerated output.
type Result struct {
	ID      string
	Title   string
	Figures []*metrics.Figure
	Tables  []*metrics.Table
	Notes   []string
}

// Render writes every figure and table of the result.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Figures {
		if err := f.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintln(w, "note:", n); err != nil {
			return err
		}
	}
	return nil
}

// Runner regenerates one experiment.
type Runner func(Options) (*Result, error)

// Registry maps experiment IDs to runners, in paper order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig1", Fig1},
		{"table1", Table1},
		{"fig5a", Fig5a},
		{"fig5b", Fig5b},
		{"fig5c", Fig5c},
		{"fig5d", Fig5d},
		{"fig5e", Fig5e},
		{"fig5f", Fig5f},
		{"fig6", Fig6},
		{"fig7a", Fig7a},
		{"fig7b", Fig7b},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"shuffling-error", ShufflingErrorTable},
		{"norm-ablation", NormAblation},
		{"hier-exchange", HierarchicalExchangeTable},
		{"eventsim", EventSimVsModel},
		{"autoq", AutoQTable},
	}
}

// Lookup finds a runner by ID.
func Lookup(id string) (Runner, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Fig1 regenerates Figure 1: dedicated node-local storage of fifteen
// TOP500 systems against deep learning dataset sizes.
func Fig1(opts Options) (*Result, error) {
	systems := cluster.Top500Systems()
	datasets := cluster.Figure1Datasets()
	tb := metrics.NewTable("Figure 1: per-node dedicated storage vs dataset sizes (TOP500, Nov 2020)")
	tb.Header("system", "node-local", "network flash", "DL-designed", "fits ImageNet-1K", "fits DeepCAM")
	var imagenet, deepcam int64
	for _, d := range datasets {
		switch d.Name {
		case "ImageNet-1K":
			imagenet = d.Bytes
		case "DeepCAM":
			deepcam = d.Bytes
		}
	}
	for _, s := range systems {
		star := ""
		if s.DLDesigned {
			star = "*"
		}
		tb.Row(s.Name,
			metrics.FormatBytes(s.NodeLocalBytes),
			metrics.FormatBytes(s.NetworkFlashBytes),
			star,
			fmt.Sprintf("%v", s.Fits(imagenet)),
			fmt.Sprintf("%v", s.Fits(deepcam)))
	}
	dt := metrics.NewTable("Figure 1 dataset lines")
	dt.Header("dataset", "size", "systems it fits on (of 15)")
	for _, d := range datasets {
		fits := 0
		for _, s := range systems {
			if s.Fits(d.Bytes) {
				fits++
			}
		}
		dt.Row(d.Name, metrics.FormatBytes(d.Bytes), fmt.Sprintf("%d", fits))
	}
	return &Result{
		ID:     "fig1",
		Title:  "Node-local storage vs dataset sizes",
		Tables: []*metrics.Table{tb, dt},
		Notes: []string{
			"Several datasets exceed every system's per-node storage: replicating the dataset to node-local SSDs is increasingly infeasible (Section II).",
		},
	}, nil
}

// Table1 regenerates Table I: datasets and models used in the experiments,
// including this reproduction's proxy configuration.
func Table1(opts Options) (*Result, error) {
	tb := metrics.NewTable("Table I: datasets and models")
	tb.Header("model", "dataset", "#samples", "size", "proxy N/classes/dim")
	for _, key := range data.DatasetKeys() {
		info, err := data.Info(key)
		if err != nil {
			return nil, err
		}
		models := ""
		for i, m := range info.Models {
			if i > 0 {
				models += ", "
			}
			models += m
		}
		if info.Pretrained {
			models += " (pretrained)"
		}
		tb.Row(models, info.Name,
			fmt.Sprintf("%d", info.RealN),
			metrics.FormatBytes(info.RealBytes),
			fmt.Sprintf("%d/%d/%d", info.Proxy.NumSamples, info.Proxy.Classes, info.Proxy.FeatureDim))
	}
	return &Result{ID: "table1", Title: "Datasets and models", Tables: []*metrics.Table{tb}}, nil
}

// perfWorkload builds the paper-scale workload for a registry dataset and
// model profile.
func perfWorkload(datasetKey, model string, batch int, sequential bool) (perfmodel.Workload, error) {
	info, err := data.Info(datasetKey)
	if err != nil {
		return perfmodel.Workload{}, err
	}
	prof, err := perfmodel.Profile(model)
	if err != nil {
		return perfmodel.Workload{}, err
	}
	return perfmodel.Workload{
		N:              int(info.RealN),
		BytesPerSample: info.BytesPerSample(),
		LocalBatch:     batch,
		Model:          prof,
		Sequential:     sequential,
	}, nil
}

// Fig9 regenerates Figure 9: epoch time of ResNet50/ImageNet-1K on ABCI as
// the worker count grows, for global, local, and partial-0.1 shuffling.
func Fig9(opts Options) (*Result, error) {
	w, err := perfWorkload("imagenet-1k", "resnet50", 32, false)
	if err != nil {
		return nil, err
	}
	mc := cluster.ABCI()
	fig := metrics.NewFigure("Figure 9: ResNet50/ImageNet-1K epoch time on ABCI", "workers", "seconds/epoch")
	strategies := []shuffle.Strategy{shuffle.GlobalShuffling(), shuffle.LocalShuffling(), shuffle.Partial(0.1)}
	series := make(map[string]*metrics.Series)
	for _, s := range strategies {
		series[s.String()] = fig.AddSeries(s.String())
	}
	for _, m := range []int{16, 32, 64, 128, 256, 512, 1024, 2048} {
		for _, s := range strategies {
			b, err := perfmodel.EpochTime(mc, w, m, s)
			if err != nil {
				return nil, err
			}
			series[s.String()].Add(float64(m), b.Total())
		}
	}
	gs128 := series["global"].Y[3]
	ls128 := series["local"].Y[3]
	return &Result{
		ID:      "fig9",
		Title:   "Epoch time vs workers",
		Figures: []*metrics.Figure{fig},
		Notes: []string{
			fmt.Sprintf("global / local at 128 workers = %.1fx (paper: ~5x)", gs128/ls128),
			"partial-0.1 tracks local up to 512 workers, then degrades as only ~40/20 iterations remain to overlap the exchange (Section V-F).",
		},
	}, nil
}

// Fig10 regenerates Figure 10: the epoch-time breakdown (IO, EXCHANGE,
// FW+BW, GE+WU) at 512 ABCI workers as the exchange rate grows, for
// ResNet50 and DenseNet161 on ImageNet-1K.
func Fig10(opts Options) (*Result, error) {
	mc := cluster.ABCI()
	res := &Result{ID: "fig10", Title: "Breakdown of epoch time vs exchange rate (512 workers)"}
	for _, model := range []string{"resnet50", "densenet161"} {
		w, err := perfWorkload("imagenet-1k", model, 32, false)
		if err != nil {
			return nil, err
		}
		tb := metrics.NewTable(fmt.Sprintf("Figure 10 (%s): seconds per phase at 512 workers", model))
		tb.Header("strategy", "IO", "EXCHANGE", "FW+BW", "GE+WU", "total", "IO slowest")
		row := func(label string, s shuffle.Strategy) error {
			b, err := perfmodel.EpochTime(mc, w, 512, s)
			if err != nil {
				return err
			}
			tb.Row(label,
				metrics.FormatSeconds(b.IO), metrics.FormatSeconds(b.Exchange),
				metrics.FormatSeconds(b.FWBW), metrics.FormatSeconds(b.GEWU),
				metrics.FormatSeconds(b.Total()), metrics.FormatSeconds(b.IOSlowest))
			return nil
		}
		if err := row("local", shuffle.LocalShuffling()); err != nil {
			return nil, err
		}
		for _, q := range []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
			if err := row(fmt.Sprintf("partial-%g", q), shuffle.Partial(q)); err != nil {
				return nil, err
			}
		}
		if err := row("global", shuffle.GlobalShuffling()); err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, tb)
	}
	res.Notes = append(res.Notes,
		"FW+BW is constant across strategies; EXCHANGE grows with Q; GS pays PFS I/O plus straggler waiting in the gradient exchange (paper: 19.6 s avg, 11.9-142 s spread, ~70 s GE at 512 workers for DenseNet).")
	return res, nil
}

// Fig7b regenerates Figure 7(b): DeepCAM epoch time for partial shuffling
// against the PFS-based global shuffling lower bound.
func Fig7b(opts Options) (*Result, error) {
	w, err := perfWorkload("deepcam", "deepcam", 8, true)
	if err != nil {
		return nil, err
	}
	mc := cluster.ABCI()
	info, err := data.Info("deepcam")
	if err != nil {
		return nil, err
	}
	bound := perfmodel.PFSLowerBound(mc, info.RealBytes)
	fig := metrics.NewFigure("Figure 7(b): DeepCAM epoch time on ABCI", "workers", "seconds/epoch")
	ls := fig.AddSeries("local")
	qs := map[float64]*metrics.Series{}
	for _, q := range []float64{0.25, 0.5, 0.9} {
		qs[q] = fig.AddSeries(fmt.Sprintf("partial-%g", q))
	}
	pfsLine := fig.AddSeries("PFS lower bound (global)")
	for _, m := range []int{1024, 2048} {
		b, err := perfmodel.EpochTime(mc, w, m, shuffle.LocalShuffling())
		if err != nil {
			return nil, err
		}
		ls.Add(float64(m), b.Total())
		for q, s := range qs {
			b, err := perfmodel.EpochTime(mc, w, m, shuffle.Partial(q))
			if err != nil {
				return nil, err
			}
			s.Add(float64(m), b.Total())
		}
		pfsLine.Add(float64(m), bound)
	}
	return &Result{
		ID:      "fig7b",
		Title:   "DeepCAM performance",
		Figures: []*metrics.Figure{fig},
		Notes: []string{
			fmt.Sprintf("PFS lower bound = %.0f s (8.2 TiB / theoretical peak bandwidth); the exchange incurs noticeable overhead but stays multiple times below the bound.", bound),
		},
	}, nil
}

// ShufflingErrorTable regenerates the Section IV-B analysis: ε(A,h,N) and
// the domination condition for ImageNet-scale parameters, with both the
// verbatim Equation 9 count and the corrected count (see
// internal/analysis for the documented discrepancy).
func ShufflingErrorTable(opts Options) (*Result, error) {
	const n = 1_200_000
	tb := metrics.NewTable("Section IV-B: shuffling error for ImageNet (|N|=1.2e6)")
	tb.Header("workers", "Q", "eps (corrected)", "eps (Eq.9, clamped)", "threshold sqrt(bM/N)", "dominates")
	for _, m := range []int{4, 128, 512, 2048, 100_000} {
		b := 100_000 / m
		if b == 0 {
			b = 1
		}
		for _, q := range []float64{0, 0.1, 0.5} {
			eps, err := analysis.ShufflingError(n, m, q)
			if err != nil {
				return nil, err
			}
			epsPaper, err := analysis.ShufflingErrorPaper(n, m, q)
			if err != nil {
				return nil, err
			}
			thr := analysis.DominationThreshold(n, m, b)
			dom, err := analysis.Dominates(n, m, b, q)
			if err != nil {
				return nil, err
			}
			tb.Row(fmt.Sprintf("%d", m), fmt.Sprintf("%g", q),
				fmt.Sprintf("%.6f", eps), fmt.Sprintf("%.6f", epsPaper),
				fmt.Sprintf("%.4f", thr), fmt.Sprintf("%v", dom))
		}
	}
	return &Result{
		ID:     "shuffling-error",
		Title:  "Shuffling error and convergence-bound domination",
		Tables: []*metrics.Table{tb},
		Notes: []string{
			"For practical sizes the shuffling error approaches 1 and dominates the Equation 6 bound, as the paper concludes — even though convergence is unaffected in practice (Section V).",
			"Equation 9 overcounts at small M (sigma > N!); the corrected count is used for the headline numbers (see internal/analysis).",
		},
	}, nil
}
