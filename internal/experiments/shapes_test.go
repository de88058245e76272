package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"
)

// TestPaperShapes checks the shape of every figure and table the paper's
// claims rest on, one row per registered experiment, each regenerated in its
// short form through the runner cmd/experiments uses. The rows that train
// models skip under -short; `go run ./cmd/experiments -run <id>` regenerates
// the full forms EXPERIMENTS.md records.
func TestPaperShapes(t *testing.T) {
	for _, row := range paperShapes {
		t.Run(row.id, func(t *testing.T) {
			if row.trains && testing.Short() {
				t.Skip("trains models: skipped with -short")
			}
			run, err := Lookup(row.id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(Options{Short: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := row.shape(res); err != nil {
				t.Error(err)
			}
			if err := res.Render(io.Discard); err != nil {
				t.Error(err)
			}
		})
	}
}

var paperShapes = []struct {
	id     string
	trains bool
	shape  func(*Result) error
}{
	// LS ~= GS at the small scale; a gap at the large scale that
	// partial-0.3 closes by at least half.
	{"fig5a", true, func(r *Result) error {
		var c claims
		gs, ls, p3 := c.last(r, 1, "global"), c.last(r, 1, "local"), c.last(r, 1, "partial-0.3")
		c.require(gs-ls >= 0.02, "expected an LS gap at the 2048-GPU scale, got gs=%.3f ls=%.3f", gs, ls)
		c.require(p3-ls >= (gs-ls)/2, "partial-0.3 did not close at least half the gap (gs=%.3f ls=%.3f pls=%.3f)", gs, ls, p3)
		return c.err()
	}},
	{"fig5b", true, func(r *Result) error {
		var c claims
		for i := range r.Figures {
			gs, ls := c.last(r, i, "global"), c.last(r, i, "local")
			c.require(gs-ls <= 0.06, "panel %d: LS should be close to GS, got gs=%.3f ls=%.3f", i, gs, ls)
		}
		return c.err()
	}},
	{"fig5c", true, func(r *Result) error {
		var c claims
		gs, ls := c.last(r, 0, "global"), c.last(r, 0, "local")
		c.require(gs-ls <= 0.06, "WideResNet LS should match GS, got gs=%.3f ls=%.3f", gs, ls)
		return c.err()
	}},
	{"fig5d", true, func(r *Result) error {
		var c claims
		gs, ls := c.last(r, 0, "global"), c.last(r, 0, "local")
		c.require(gs-ls <= 0.06, "pretrained fine-tuning LS should match GS, got gs=%.3f ls=%.3f", gs, ls)
		return c.err()
	}},
	// A large LS gap at 128 GPUs, recovery that grows with Q, and LS
	// accuracy that does not improve as the partition's class-locality
	// grows (the calibration curve behind the accuracy figures).
	{"fig5e", true, func(r *Result) error {
		var c claims
		gs, ls := c.last(r, 1, "global"), c.last(r, 1, "local")
		p1, p7 := c.last(r, 1, "partial-0.1"), c.last(r, 1, "partial-0.7")
		c.require(gs-ls >= 0.05, "expected a large LS gap at 128 GPUs, got gs=%.3f ls=%.3f", gs, ls)
		c.require(p7 > p1, "recovery should grow with Q (partial-0.1=%.3f partial-0.7=%.3f)", p1, p7)
		c.require(p7-ls >= (gs-ls)/2, "partial-0.7 did not close at least half the gap (gs=%.3f ls=%.3f p7=%.3f)", gs, ls, p7)
		c.rows(r, 0, 8)
		prev := 2.0
		for _, loc := range []string{"0", "0.5", "1"} {
			acc := c.cell(r, 1, loc, "final acc")
			c.require(acc <= prev+0.05, "LS accuracy should not improve as locality grows (%.3f at locality %s after %.3f)", acc, loc, prev)
			prev = acc
		}
		return c.err()
	}},
	{"fig5f", true, func(r *Result) error {
		var c claims
		gs, ls, p3 := c.last(r, 0, "global"), c.last(r, 0, "local"), c.last(r, 0, "partial-0.3")
		c.require(gs-ls >= 0.02, "Inception-v4 should degrade under LS, got gs=%.3f ls=%.3f", gs, ls)
		c.require(p3-ls >= (gs-ls)/2, "partial-0.3 did not recover (gs=%.3f ls=%.3f p3=%.3f)", gs, ls, p3)
		return c.err()
	}},
	// Strong scaling: the LS gap grows with workers; partial-0.1 recovers a
	// substantial part of it at the largest scale.
	{"fig6", true, func(r *Result) error {
		var c claims
		gap0 := c.last(r, 0, "global") - c.last(r, 0, "local")
		gs1, ls1, p1 := c.last(r, 1, "global"), c.last(r, 1, "local"), c.last(r, 1, "partial-0.1")
		gap1 := gs1 - ls1
		c.require(gap1 > gap0, "LS gap should grow with scale (%.3f -> %.3f)", gap0, gap1)
		c.require(p1-ls1 >= gap1/3, "partial-0.1 should recover a substantial part of the largest-scale gap (gs=%.3f ls=%.3f p=%.3f)", gs1, ls1, p1)
		return c.err()
	}},
	{"fig7a", true, func(r *Result) error {
		var c claims
		ls, p9 := c.last(r, 0, "local"), c.last(r, 0, "partial-0.9")
		c.require(p9 >= ls, "partial shuffling should not be worse than local (ls=%.3f p9=%.3f)", ls, p9)
		return c.err()
	}},
	// Every strategy sits below the PFS bound, the partial ones multiple
	// times below it.
	{"fig7b", false, func(r *Result) error {
		var c claims
		bound := c.last(r, 0, "PFS lower bound (global)")
		c.require(bound > 0, "PFS lower bound %.0f s should be positive", bound)
		for _, s := range []string{"local", "partial-0.25", "partial-0.5", "partial-0.9"} {
			v := c.last(r, 0, s)
			c.require(v < bound, "%s epoch time %.0f s should sit below the %.0f s PFS bound", s, v, bound)
			if s != "local" {
				c.require(v < bound/1.5, "%s epoch time %.0f s should be multiple times below the %.0f s PFS bound", s, v, bound)
			}
		}
		return c.err()
	}},
	// Whenever an upstream gap exists, the downstream one is much smaller.
	{"fig8", true, func(r *Result) error {
		var c claims
		up := c.last(r, 0, "global") - c.last(r, 0, "local")
		down := c.last(r, 1, "upstream-global") - c.last(r, 1, "upstream-local")
		c.require(up <= 0.02 || down <= up*0.75, "downstream gap %.3f should shrink versus upstream gap %.3f", down, up)
		return c.err()
	}},
	// GS is slower than LS at every scale and ~5x at 128 workers;
	// partial-0.1 never beats LS.
	{"fig9", false, func(r *Result) error {
		var c claims
		if len(r.Figures) == 0 {
			return fmt.Errorf("no figure")
		}
		fig := r.Figures[0]
		gs, ls, pls := fig.Lookup("global"), fig.Lookup("local"), fig.Lookup("partial-0.1")
		if gs == nil || ls == nil || pls == nil {
			return fmt.Errorf("missing series")
		}
		if len(gs.X) != 8 {
			return fmt.Errorf("%d scale points, want 8", len(gs.X))
		}
		for i := range gs.Y {
			c.require(gs.Y[i] > ls.Y[i], "global should be slower than local at %v workers", gs.X[i])
			c.require(pls.Y[i] >= ls.Y[i], "partial-0.1 should not beat local at %v workers", pls.X[i])
		}
		// 128 workers is the 4th point.
		ratio := gs.Y[3] / ls.Y[3]
		c.require(ratio >= 3 && ratio <= 8, "GS/LS at 128 workers = %.1fx, paper reports ~5x", ratio)
		return c.err()
	}},
	// One table per model: local, 7 partial rates, global.
	{"fig10", false, func(r *Result) error {
		if len(r.Tables) != 2 {
			return fmt.Errorf("%d tables, want 2", len(r.Tables))
		}
		var c claims
		c.rows(r, 0, 9)
		c.rows(r, 1, 9)
		return c.err()
	}},
	{"shuffling-error", false, func(r *Result) error {
		var c claims
		c.rows(r, 0, 15)
		return c.err()
	}},
	// Batch norm causes the LS gap, and full SyncBatchNorm closes it.
	{"norm-ablation", true, func(r *Result) error {
		var c claims
		c.rows(r, 0, 5)
		bn, none, full := c.cell(r, 0, "batch-norm", "gap"), c.cell(r, 0, "no-norm", "gap"), c.cell(r, 0, "batch-norm+full-sync", "gap")
		c.require(bn > none, "batch-norm gap %.4f should exceed the no-norm gap %.4f", bn, none)
		c.require(full < bn, "full SyncBatchNorm gap %.4f should be below the batch-norm gap %.4f", full, bn)
		return c.err()
	}},
	{"hier-exchange", false, func(r *Result) error {
		var c claims
		c.rows(r, 0, 5)
		return c.err()
	}},
	// 2 scales x 3 strategies in the short form.
	{"eventsim", false, func(r *Result) error {
		var c claims
		c.rows(r, 0, 6)
		return c.err()
	}},
}

// claims collects a row's failed claims, so one run reports all of them.
type claims []error

func (c *claims) require(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Errorf(format, args...))
	}
}

func (c claims) err() error { return errors.Join(c...) }

var nan = math.NaN()

// last is the final value of a figure's named series (NaN, with a failed
// claim, when there is none).
func (c *claims) last(r *Result, fig int, series string) float64 {
	if fig < len(r.Figures) {
		if s := r.Figures[fig].Lookup(series); s != nil && len(s.Y) > 0 {
			return s.Last()
		}
	}
	c.require(false, "missing series %q in figure %d", series, fig)
	return nan
}

// cell is a table's numeric cell (NaN, with a failed claim, when there is
// none).
func (c *claims) cell(r *Result, table int, key, col string) float64 {
	if table < len(r.Tables) {
		if s, ok := r.Tables[table].Cell(key, col); ok {
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				return v
			}
		}
	}
	c.require(false, "no number in table %d at row %q column %q", table, key, col)
	return nan
}

// rows claims that a table has n rows.
func (c *claims) rows(r *Result, table, n int) {
	got := -1
	if table < len(r.Tables) {
		got = r.Tables[table].NumRows()
	}
	c.require(got == n, "table %d has %d rows, want %d", table, got, n)
}
