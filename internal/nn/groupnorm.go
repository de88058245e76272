package nn

import (
	"fmt"
	"math"

	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
)

// GroupNorm normalizes each sample's features within groups of channels,
// independently of the mini-batch — the alternative Section IV-A.1
// suggests for partial local shuffling: "normalization methods that are
// effective at smaller number of samples per worker, e.g. group
// normalization, could potentially be an alternative for effective
// normalization in partial local shuffling" (Wu & He, ECCV 2018).
//
// Because the statistics are per-sample, group normalization has no batch
// statistics to bias and no running estimates to diverge across workers:
// local shuffling with GroupNorm should not suffer the batch-norm
// degradation, which the norm-ablation experiment verifies.
type GroupNorm struct {
	Dim    int
	Groups int
	Gamma  []float32
	Beta   []float32
	GGamma []float32
	GBeta  []float32
	Eps    float32

	// cached for backward
	xhat   *tensor.Matrix
	invStd []float32 // per (row, group), row-major

	// reusable workspaces
	out   *tensor.Matrix
	arena *arena.Arena
}

// SetArena moves the batch-shaped workspaces into a (nil detaches); see
// ArenaUser.
func (l *GroupNorm) SetArena(a *arena.Arena) { l.arena = a }

// NewGroupNorm creates a GroupNorm layer over dim features in the given
// number of groups; groups must divide dim.
func NewGroupNorm(dim, groups int) *GroupNorm {
	if groups <= 0 || dim%groups != 0 {
		panic(fmt.Sprintf("nn: NewGroupNorm(%d, %d): groups must divide dim", dim, groups))
	}
	gn := &GroupNorm{
		Dim:    dim,
		Groups: groups,
		Gamma:  make([]float32, dim),
		Beta:   make([]float32, dim),
		GGamma: make([]float32, dim),
		GBeta:  make([]float32, dim),
		Eps:    1e-5,
	}
	for i := range gn.Gamma {
		gn.Gamma[i] = 1
	}
	return gn
}

// Forward normalizes each row's groups to zero mean and unit variance;
// identical in training and inference mode (no batch coupling).
func (l *GroupNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != l.Dim {
		panic(fmt.Sprintf("nn: GroupNorm.Forward: input has %d features, want %d", x.Cols, l.Dim))
	}
	gsize := l.Dim / l.Groups
	l.out = tensor.EnsureShapeArena(l.arena, l.out, x.Rows, x.Cols)
	out := l.out
	l.xhat = tensor.EnsureShapeArena(l.arena, l.xhat, x.Rows, x.Cols)
	l.invStd = ensureVec(l.invStd, x.Rows*l.Groups)
	for i := 0; i < x.Rows; i++ {
		row, hrow, orow := x.Row(i), l.xhat.Row(i), out.Row(i)
		for g := 0; g < l.Groups; g++ {
			seg := row[g*gsize : (g+1)*gsize]
			var mean float32
			for _, v := range seg {
				mean += v
			}
			mean /= float32(gsize)
			var variance float32
			for _, v := range seg {
				d := v - mean
				variance += d * d
			}
			variance /= float32(gsize)
			inv := 1 / float32(math.Sqrt(float64(variance+l.Eps)))
			l.invStd[i*l.Groups+g] = inv
			for j := g * gsize; j < (g+1)*gsize; j++ {
				h := (row[j] - mean) * inv
				hrow[j] = h
				orow[j] = l.Gamma[j]*h + l.Beta[j]
			}
		}
	}
	return out
}

// Backward implements the per-group normalization gradient, written over
// dout: each group's elements are rewritten only after its sums read them.
func (l *GroupNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	gsize := l.Dim / l.Groups
	n := float32(gsize)
	for j := range l.GGamma {
		l.GGamma[j] = 0
		l.GBeta[j] = 0
	}
	for i := 0; i < dout.Rows; i++ {
		drow, hrow := dout.Row(i), l.xhat.Row(i)
		for j, d := range drow {
			l.GBeta[j] += d
			l.GGamma[j] += d * hrow[j]
		}
		for g := 0; g < l.Groups; g++ {
			var sumDy, sumDyXhat float32
			for j := g * gsize; j < (g+1)*gsize; j++ {
				dy := drow[j] * l.Gamma[j]
				sumDy += dy
				sumDyXhat += dy * hrow[j]
			}
			inv := l.invStd[i*l.Groups+g]
			for j := g * gsize; j < (g+1)*gsize; j++ {
				dy := drow[j] * l.Gamma[j]
				drow[j] = inv / n * (n*dy - sumDy - hrow[j]*sumDyXhat)
			}
		}
	}
	return dout
}

// bind implements binder.
func (l *GroupNorm) bind(w, g []float32) ([]float32, []float32) {
	l.Gamma, w = carve(w, l.Gamma)
	l.Beta, w = carve(w, l.Beta)
	l.GGamma, g = carve(g, l.GGamma)
	l.GBeta, g = carve(g, l.GBeta)
	return w, g
}

// Params exposes gamma and beta with their gradients.
func (l *GroupNorm) Params() []Param {
	return []Param{
		{Name: "gn.gamma", W: l.Gamma, G: l.GGamma},
		{Name: "gn.beta", W: l.Beta, G: l.GBeta},
	}
}
