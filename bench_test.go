// Root benchmark harness: one benchmark per table and figure of the paper
// (DESIGN.md §4), plus ablation benchmarks for the design choices of
// DESIGN.md §5. Accuracy benchmarks run the experiments in -short mode
// (fewer epochs) so a full `go test -bench=. -benchmem` pass stays
// tractable on one machine; `go run ./cmd/experiments -run all` regenerates
// the full-length versions recorded in EXPERIMENTS.md.
package plshuffle_test

import (
	"io"
	"strconv"
	"testing"

	"plshuffle"
	"plshuffle/internal/experiments"
	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
)

// runExperiment executes one registered experiment per benchmark iteration
// and reports a headline metric where one is defined.
func runExperiment(b *testing.B, id string, short bool) *experiments.Result {
	b.Helper()
	runner, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err = runner(experiments.Options{Short: short})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Render into a discard writer so the full formatting path is
	// exercised (and timed) too.
	if err := res.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
	return res
}

// finalAcc extracts the last value of a named series from a figure.
func finalAcc(b *testing.B, res *experiments.Result, figIdx int, series string) float64 {
	b.Helper()
	if figIdx >= len(res.Figures) {
		b.Fatalf("%s: missing figure %d", res.ID, figIdx)
	}
	s := res.Figures[figIdx].Lookup(series)
	if s == nil {
		b.Fatalf("%s: missing series %q", res.ID, series)
	}
	return s.Last()
}

func BenchmarkFig1(b *testing.B)   { runExperiment(b, "fig1", false) }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", false) }

func BenchmarkFig5a(b *testing.B) {
	res := runExperiment(b, "fig5a", true)
	// Shape: LS ~= GS at the small scale; a gap at the large scale that
	// partial-0.3 closes by at least half.
	gsBig := finalAcc(b, res, 1, "global")
	lsBig := finalAcc(b, res, 1, "local")
	plsBig := finalAcc(b, res, 1, "partial-0.3")
	b.ReportMetric(gsBig-lsBig, "gap@2048")
	b.ReportMetric(gsBig-plsBig, "gap-partial@2048")
	if gsBig-lsBig < 0.02 {
		b.Errorf("fig5a: expected an LS gap at the 2048-GPU scale, got gs=%.3f ls=%.3f", gsBig, lsBig)
	}
	if plsBig-lsBig < (gsBig-lsBig)/2 {
		b.Errorf("fig5a: partial-0.3 did not close at least half the gap (gs=%.3f ls=%.3f pls=%.3f)", gsBig, lsBig, plsBig)
	}
}

func BenchmarkFig5b(b *testing.B) {
	res := runExperiment(b, "fig5b", true)
	for i := range res.Figures {
		gs := finalAcc(b, res, i, "global")
		ls := finalAcc(b, res, i, "local")
		b.ReportMetric(gs-ls, "gap")
		if gs-ls > 0.06 {
			b.Errorf("fig5b panel %d: LS should be close to GS, got gs=%.3f ls=%.3f", i, gs, ls)
		}
	}
}

func BenchmarkFig5c(b *testing.B) {
	res := runExperiment(b, "fig5c", true)
	gs := finalAcc(b, res, 0, "global")
	ls := finalAcc(b, res, 0, "local")
	b.ReportMetric(gs-ls, "gap")
	if gs-ls > 0.06 {
		b.Errorf("fig5c: WideResNet LS should match GS, got gs=%.3f ls=%.3f", gs, ls)
	}
}

func BenchmarkFig5d(b *testing.B) {
	res := runExperiment(b, "fig5d", true)
	gs := finalAcc(b, res, 0, "global")
	ls := finalAcc(b, res, 0, "local")
	b.ReportMetric(gs-ls, "gap")
	if gs-ls > 0.06 {
		b.Errorf("fig5d: pretrained fine-tuning LS should match GS, got gs=%.3f ls=%.3f", gs, ls)
	}
}

func BenchmarkFig5e(b *testing.B) {
	res := runExperiment(b, "fig5e", true)
	gs := finalAcc(b, res, 1, "global")
	ls := finalAcc(b, res, 1, "local")
	p7 := finalAcc(b, res, 1, "partial-0.7")
	p1 := finalAcc(b, res, 1, "partial-0.1")
	b.ReportMetric(gs-ls, "gap@128")
	b.ReportMetric(gs-p7, "gap-partial0.7@128")
	if gs-ls < 0.05 {
		b.Errorf("fig5e: expected a large LS gap at 128 GPUs, got gs=%.3f ls=%.3f", gs, ls)
	}
	if p7 <= p1 {
		b.Errorf("fig5e: recovery should grow with Q (partial-0.1=%.3f partial-0.7=%.3f)", p1, p7)
	}
	if p7-ls < (gs-ls)/2 {
		b.Errorf("fig5e: partial-0.7 did not close at least half the gap")
	}
}

func BenchmarkFig5f(b *testing.B) {
	res := runExperiment(b, "fig5f", true)
	gs := finalAcc(b, res, 0, "global")
	ls := finalAcc(b, res, 0, "local")
	p3 := finalAcc(b, res, 0, "partial-0.3")
	b.ReportMetric(gs-ls, "gap")
	if gs-ls < 0.02 {
		b.Errorf("fig5f: Inception-v4 should degrade under LS, got gs=%.3f ls=%.3f", gs, ls)
	}
	if p3-ls < (gs-ls)/2 {
		b.Errorf("fig5f: partial-0.3 did not recover (gs=%.3f ls=%.3f p3=%.3f)", gs, ls, p3)
	}
}

func BenchmarkFig6(b *testing.B) {
	res := runExperiment(b, "fig6", true)
	// Strong scaling: the LS gap grows with workers; partial-0.1 stays
	// close to GS at the largest scale.
	gap0 := finalAcc(b, res, 0, "global") - finalAcc(b, res, 0, "local")
	gap1 := finalAcc(b, res, 1, "global") - finalAcc(b, res, 1, "local")
	gs1 := finalAcc(b, res, 1, "global")
	p1 := finalAcc(b, res, 1, "partial-0.1")
	b.ReportMetric(gap0, "gap@2048")
	b.ReportMetric(gap1, "gap@4096")
	if gap1 <= gap0 {
		b.Errorf("fig6: LS gap should grow with scale (%.3f -> %.3f)", gap0, gap1)
	}
	ls1 := finalAcc(b, res, 1, "local")
	if p1-ls1 < gap1/3 {
		b.Errorf("fig6: partial-0.1 should recover a substantial part of the 4096-worker gap (gs=%.3f ls=%.3f p=%.3f)", gs1, ls1, p1)
	}
}

func BenchmarkFig7a(b *testing.B) {
	res := runExperiment(b, "fig7a", true)
	ls := finalAcc(b, res, 0, "local")
	p9 := finalAcc(b, res, 0, "partial-0.9")
	b.ReportMetric(p9-ls, "improvement@1024")
	if p9 < ls {
		b.Errorf("fig7a: partial shuffling should not be worse than local (ls=%.3f p9=%.3f)", ls, p9)
	}
}

func BenchmarkFig7b(b *testing.B) {
	res := runExperiment(b, "fig7b", false)
	fig := res.Figures[0]
	bound := fig.Lookup("PFS lower bound (global)").Last()
	for _, q := range []string{"partial-0.25", "partial-0.5", "partial-0.9"} {
		v := fig.Lookup(q).Last()
		if v >= bound/1.5 {
			b.Errorf("fig7b: %s epoch time %.0f s should be multiple times below the %.0f s PFS bound", q, v, bound)
		}
	}
	b.ReportMetric(bound, "pfs-bound-s")
}

func BenchmarkFig8(b *testing.B) {
	res := runExperiment(b, "fig8", true)
	upGS := finalAcc(b, res, 0, "global")
	upLS := finalAcc(b, res, 0, "local")
	downGS := finalAcc(b, res, 1, "upstream-global")
	downLS := finalAcc(b, res, 1, "upstream-local")
	b.ReportMetric(upGS-upLS, "upstream-gap")
	b.ReportMetric(downGS-downLS, "downstream-gap")
	// The downstream difference should be much smaller than the upstream one
	// whenever an upstream gap exists.
	if upGS-upLS > 0.02 && downGS-downLS > (upGS-upLS)*0.75 {
		b.Errorf("fig8: downstream gap %.3f should shrink versus upstream gap %.3f", downGS-downLS, upGS-upLS)
	}
}

func BenchmarkFig9(b *testing.B) {
	res := runExperiment(b, "fig9", false)
	fig := res.Figures[0]
	gs := fig.Lookup("global")
	ls := fig.Lookup("local")
	// 128 workers is the 4th point.
	ratio := gs.Y[3] / ls.Y[3]
	b.ReportMetric(ratio, "gs/ls@128")
	if ratio < 3 || ratio > 8 {
		b.Errorf("fig9: GS/LS at 128 workers = %.1fx, paper reports ~5x", ratio)
	}
}

func BenchmarkFig10(b *testing.B) {
	res := runExperiment(b, "fig10", false)
	if len(res.Tables) != 2 {
		b.Fatalf("fig10 should produce 2 tables, got %d", len(res.Tables))
	}
	for _, tb := range res.Tables {
		if tb.NumRows() != 9 { // local, 7 partial rates, global
			b.Errorf("fig10 table has %d rows, want 9", tb.NumRows())
		}
	}
}

func BenchmarkShufflingErrorTable(b *testing.B) {
	res := runExperiment(b, "shuffling-error", false)
	if res.Tables[0].NumRows() != 15 {
		b.Errorf("shuffling-error table rows = %d", res.Tables[0].NumRows())
	}
}

// BenchmarkNormAblation regenerates the mechanism decomposition: batch
// norm causes the LS gap; full SyncBatchNorm and GroupNorm close it;
// epoch-level stats sync does not.
func BenchmarkNormAblation(b *testing.B) {
	res := runExperiment(b, "norm-ablation", true)
	if res.Tables[0].NumRows() != 5 {
		b.Fatalf("norm-ablation rows = %d, want 5 variants", res.Tables[0].NumRows())
	}
}

// BenchmarkHierExchange regenerates the Section V-F extension table.
func BenchmarkHierExchange(b *testing.B) {
	res := runExperiment(b, "hier-exchange", false)
	if res.Tables[0].NumRows() != 5 {
		b.Fatalf("hier-exchange rows = %d", res.Tables[0].NumRows())
	}
}

// BenchmarkEventSim cross-checks the discrete-event simulator against the
// analytic model (agreement within 3x; emergent stragglers).
func BenchmarkEventSim(b *testing.B) {
	res := runExperiment(b, "eventsim", true)
	if res.Tables[0].NumRows() != 6 {
		b.Fatalf("eventsim rows = %d, want 6 (2 scales x 3 strategies in short mode)", res.Tables[0].NumRows())
	}
}

// BenchmarkImportance regenerates the importance-sampling extension table
// and asserts the weighted exchange does no harm.
func BenchmarkImportance(b *testing.B) {
	res := runExperiment(b, "importance", true)
	if res.Tables[0].NumRows() != 2 {
		b.Fatalf("importance rows = %d", res.Tables[0].NumRows())
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationOverlapChunked and ...Bulk time the real exchange with
// per-iteration chunked posting versus one bulk epoch-boundary exchange.
func BenchmarkAblationOverlapChunked(b *testing.B) { benchOverlap(b, 8) }
func BenchmarkAblationOverlapBulk(b *testing.B)    { benchOverlap(b, 0) }

func benchOverlap(b *testing.B, chunk int) {
	const n, m, q = 4096, 8, 0.3
	ds, err := plshuffle.GenerateDataset(plshuffle.DatasetSpec{
		Name: "ablation", NumSamples: n, NumVal: 0, Classes: 4,
		FeatureDim: 8, ClassSep: 3, NoiseStd: 1, Bytes: 1000, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := shuffle.Partition(n, m, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(m, func(c *mpi.Comm) error {
			st := plshuffle.NewLocalStore(0)
			for _, id := range parts[c.Rank()] {
				if err := st.Put(ds.Train[id]); err != nil {
					return err
				}
			}
			sched, err := shuffle.NewScheduler(c, st, q, n, 9)
			if err != nil {
				return err
			}
			if err := sched.Scheduling(i); err != nil {
				return err
			}
			if chunk > 0 {
				for posted := 0; posted < sched.Slots(); posted += chunk {
					if _, err := sched.Communicate(chunk); err != nil {
						return err
					}
				}
			}
			if err := sched.Synchronize(); err != nil {
				return err
			}
			return sched.CleanLocalStorage()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBatchNorm isolates the Section IV-A.1 mechanism: under
// class-local shards, the LS-vs-GS gap with batch normalization is larger
// than without it.
func BenchmarkAblationBatchNorm(b *testing.B) {
	ds, err := plshuffle.GenerateDataset(plshuffle.DatasetSpec{
		Name: "bn-ablation", NumSamples: 1024, NumVal: 512, Classes: 16,
		FeatureDim: 16, ClassSep: 4, NoiseStd: 1.2, Bytes: 100, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	gap := func(batchNorm bool) float64 {
		spec := plshuffle.ModelSpec{Name: "abl", Hidden: []int{32, 32}, BatchNorm: batchNorm}.
			WithData(ds.FeatureDim, ds.Classes)
		run := func(s plshuffle.Strategy) float64 {
			res, err := plshuffle.Train(plshuffle.TrainConfig{
				Workers: 16, Strategy: s, Dataset: ds, Model: spec,
				Epochs: 12, BatchSize: 8, BaseLR: 0.1, Momentum: 0.9,
				WeightDecay: 1e-4, Seed: 5, PartitionLocality: 1.0,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.FinalValAcc
		}
		return run(plshuffle.Global()) - run(plshuffle.Local())
	}
	var withBN, withoutBN float64
	for i := 0; i < b.N; i++ {
		withBN = gap(true)
		withoutBN = gap(false)
	}
	b.ReportMetric(withBN, "ls-gap-with-bn")
	b.ReportMetric(withoutBN, "ls-gap-without-bn")
	if withBN <= withoutBN {
		b.Logf("note: batch-norm gap (%.3f) did not exceed the no-BN gap (%.3f) in this short run", withBN, withoutBN)
	}
}

// BenchmarkAblationLocality sweeps the partition-locality knob, reporting
// the LS accuracy at each setting — the calibration curve behind the
// accuracy figures.
func BenchmarkAblationLocality(b *testing.B) {
	ds, err := plshuffle.ProxyDataset("imagenet-50")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := plshuffle.ProxyModel("resnet50")
	if err != nil {
		b.Fatal(err)
	}
	model := spec.WithData(ds.FeatureDim, ds.Classes)
	for i := 0; i < b.N; i++ {
		prev := 2.0
		for _, loc := range []float64{0, 0.5, 1.0} {
			res, err := plshuffle.Train(plshuffle.TrainConfig{
				Workers: 32, Strategy: plshuffle.Local(), Dataset: ds, Model: model,
				Epochs: 8, BatchSize: 16, BaseLR: 0.05, Momentum: 0.9,
				WeightDecay: 1e-4, Seed: 2022, PartitionLocality: loc,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.FinalValAcc, "ls-acc@loc-"+trim(loc))
			if res.FinalValAcc > prev+0.05 {
				b.Errorf("LS accuracy should not improve as locality grows")
			}
			prev = res.FinalValAcc
		}
	}
}

func trim(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
