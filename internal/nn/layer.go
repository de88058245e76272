// Package nn implements the small neural-network substrate used to run the
// paper's training experiments: fully-connected layers, ReLU, batch
// normalization (the mechanism Section IV-A.1 identifies as the main source
// of accuracy loss under local shuffling), dropout, softmax cross-entropy,
// SGD with momentum, LARS (used by the paper for large-batch runs), and
// learning-rate schedules with warmup.
//
// The paper trains convolutional networks in PyTorch; this package provides
// MLP proxies for those architectures (see model.go and DESIGN.md §2 for
// why the substitution preserves the studied behaviour).
package nn

import (
	"fmt"
	"math"

	"plshuffle/internal/rng"
	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
)

// ArenaUser is implemented by layers whose activation workspaces can live
// in a caller-owned bump arena instead of individual heap buffers. The
// trainer attaches one arena per worker goroutine and Resets it at the top
// of every training step (DESIGN.md §14): all workspaces for one
// forward+backward pass are bump-allocated from the same chunks and
// reclaimed wholesale, so the steady state does zero heap allocation.
//
// The contract tightens Layer's buffer-ownership rule: with an arena
// attached, matrices returned by Forward/Backward are valid only until the
// arena's next Reset. Persistent state (weights, gradients, running
// statistics, masks) never moves into the arena.
type ArenaUser interface {
	SetArena(a *arena.Arena)
}

// Param is a flat view of one learnable parameter tensor and its gradient.
// Optimizers and the gradient allreduce operate on these views, so updating
// them updates the layer in place.
type Param struct {
	Name string
	W    []float32 // weights (view into the layer's storage)
	G    []float32 // gradient, same length as W
}

// Layer is one differentiable module. Forward must be called before
// Backward for the same batch; train selects training vs inference
// behaviour (batch statistics, dropout).
//
// Buffer ownership: the matrices returned by Forward and Backward are
// layer-owned workspaces, reused on the layer's next Forward/Backward call
// (the zero-allocation steady state). Callers that retain a result across
// iterations — metrics, tests, checkpoints — must Clone it first.
//
// Backward may overwrite dout and return it as its result: a layer that is
// element-wise once its reductions over dout are done (ReLU, BatchNorm,
// GroupNorm, Dropout) writes its gradient in place, so the backward pass
// keeps no batch-sized buffer of its own (Chen et al. 2016's in-place
// gradients). A caller that needs dout afterwards passes a Clone.
type Layer interface {
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	Backward(dout *tensor.Matrix) *tensor.Matrix
	Params() []Param
}

// ensureVec returns a float32 slice of length n, reusing v's storage when
// possible. Contents are unspecified on the reused path; accumulator uses
// must zero it first.
func ensureVec(v []float32, n int) []float32 {
	if cap(v) < n {
		return make([]float32, n)
	}
	return v[:n]
}

// Linear is a fully-connected layer: y = x·W + b, with W of shape in×out.
type Linear struct {
	In, Out int
	W       *tensor.Matrix
	B       []float32
	GW      *tensor.Matrix
	GB      []float32
	x       *tensor.Matrix // cached input for backward
	y       *tensor.Matrix // forward workspace, reused across calls
	dx      *tensor.Matrix // backward workspace, reused across calls
	arena   *arena.Arena   // optional step arena for y/dx (see ArenaUser)
	// input is set by NewSequential on the container's first layer: dx would
	// be the gradient of the training data, which nothing reads. It stays
	// with the layer until NewSequential binds it again, at whatever
	// position it has there.
	input bool
}

// SetArena moves the activation workspaces into a (nil detaches).
func (l *Linear) SetArena(a *arena.Arena) { l.arena = a }

// NewLinear creates a Linear layer with He (Kaiming) initialization, the
// standard choice for ReLU networks.
func NewLinear(in, out int, r *rng.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:  tensor.New(in, out),
		B:  make([]float32, out),
		GW: tensor.New(in, out),
		GB: make([]float32, out),
	}
	l.W.KaimingInit(r, in)
	return l
}

// Forward computes y = x·W + b and caches x for the backward pass.
func (l *Linear) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear.Forward: input has %d features, want %d", x.Cols, l.In))
	}
	l.x = x
	l.y = tensor.EnsureShapeArena(l.arena, l.y, x.Rows, l.Out)
	tensor.MatMulInto(l.y, x, l.W)
	l.y.AddRowVec(l.B)
	return l.y
}

// Backward computes parameter gradients (averaged over the batch is the
// caller's responsibility via the loss scaling) and returns dx = dy·Wᵀ.
// Gradients land directly in GW/GB and dx in a reused workspace: the
// steady-state backward pass allocates nothing. Once NewSequential has
// bound it as a container's first layer it computes no dx and returns nil,
// through the container or called directly, for as long as that binding
// is its latest.
func (l *Linear) Backward(dout *tensor.Matrix) *tensor.Matrix {
	tensor.MatMulTAInto(l.GW, l.x, dout) // xᵀ·dy
	dout.ColSumInto(l.GB)
	if l.input {
		return nil
	}
	l.dx = tensor.EnsureShapeArena(l.arena, l.dx, dout.Rows, l.In)
	tensor.MatMulTBInto(l.dx, dout, l.W) // dy·Wᵀ
	return l.dx
}

// bind implements binder.
func (l *Linear) bind(w, g []float32) ([]float32, []float32) {
	l.W.Data, w = carve(w, l.W.Data)
	l.B, w = carve(w, l.B)
	l.GW.Data, g = carve(g, l.GW.Data)
	l.GB, g = carve(g, l.GB)
	return w, g
}

// Params exposes W and b with their gradients.
func (l *Linear) Params() []Param {
	return []Param{
		{Name: "linear.W", W: l.W.Data, G: l.GW.Data},
		{Name: "linear.b", W: l.B, G: l.GB},
	}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	out   *tensor.Matrix // forward workspace, and what Backward masks by
	arena *arena.Arena
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// SetArena moves the activation workspaces into a (nil detaches).
func (l *ReLU) SetArena(a *arena.Arena) { l.arena = a }

// Forward zeroes non-positive inputs (a NaN passes).
func (l *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	l.out = tensor.EnsureShapeArena(l.arena, l.out, x.Rows, x.Cols)
	tensor.ReLUInto(l.out.Data, x.Data)
	return l.out
}

// Backward zeroes dout where the input was non-positive and returns it.
// Which elements those were is read back from the forward output, which is
// non-positive in exactly the same places; no separate mask is kept.
func (l *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	tensor.ReLUGradInto(dout.Data, dout.Data, l.out.Data)
	return dout
}

// Params returns nil: ReLU has no learnable parameters.
func (l *ReLU) Params() []Param { return nil }

// BatchNorm normalizes each feature over the mini-batch during training and
// with running statistics during inference. This layer is central to the
// reproduction: the paper (following Yang et al.) attributes the accuracy
// gap of local shuffling at scale primarily to batch statistics being
// computed on each worker's local, fixed mini-batches.
type BatchNorm struct {
	Dim      int
	Gamma    []float32
	Beta     []float32
	GGamma   []float32
	GBeta    []float32
	RunMean  []float32
	RunVar   []float32
	Momentum float32 // running-stats update rate (PyTorch default 0.1)
	Eps      float32

	// Sync, when non-nil, sums a statistics vector across all
	// data-parallel workers (an allreduce). With it set, the layer
	// computes batch statistics over the GLOBAL mini-batch — PyTorch's
	// SyncBatchNorm — in both the forward and backward passes. Every
	// worker must call Forward/Backward in lock-step (which synchronous
	// SGD guarantees). Without it, statistics are per-worker, which is
	// the standard behaviour whose shard bias Section IV-A.1 identifies
	// as the cause of local shuffling's accuracy loss.
	Sync func([]float32)

	// cached values for backward
	xhat   *tensor.Matrix
	invStd []float32
	countN float32 // batch size used in the last training forward (global when synced)

	// reusable workspaces (zero-allocation steady state)
	out      *tensor.Matrix
	stats    []float32 // forward sums/sumsq/count accumulator
	mean     []float32
	variance []float32
	dstats   []float32 // backward sumDy/sumDyXhat accumulator
	coef     []float32 // backward gamma·invStd/n
	arena    *arena.Arena
}

// SetArena moves the batch-shaped workspaces (out, xhat) into a (nil
// detaches). The per-feature statistics vectors stay heap-resident: they
// are tiny and the Sync hook may hold them across the arena's lifetime.
func (l *BatchNorm) SetArena(a *arena.Arena) { l.arena = a }

// NewBatchNorm creates a BatchNorm layer over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim:      dim,
		Gamma:    make([]float32, dim),
		Beta:     make([]float32, dim),
		GGamma:   make([]float32, dim),
		GBeta:    make([]float32, dim),
		RunMean:  make([]float32, dim),
		RunVar:   make([]float32, dim),
		Momentum: 0.1,
		Eps:      1e-5,
	}
	for i := range bn.Gamma {
		bn.Gamma[i] = 1
		bn.RunVar[i] = 1
	}
	return bn
}

// Forward normalizes x per feature. In training mode it uses the batch's
// own mean/variance (the locally-biased statistics the paper discusses) and
// updates the running estimates; in inference mode it uses the running
// estimates.
func (l *BatchNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != l.Dim {
		panic(fmt.Sprintf("nn: BatchNorm.Forward: input has %d features, want %d", x.Cols, l.Dim))
	}
	l.out = tensor.EnsureShapeArena(l.arena, l.out, x.Rows, x.Cols)
	out := l.out
	n := float32(x.Rows)
	if train {
		// Accumulate per-feature sums and sums of squares; with a Sync
		// hook these are reduced across workers so the statistics cover
		// the global mini-batch.
		l.stats = ensureVec(l.stats, 2*l.Dim+1)
		stats := l.stats
		clear(stats)
		sums := stats[:l.Dim]
		sumsq := stats[l.Dim : 2*l.Dim]
		for i := 0; i < x.Rows; i++ {
			tensor.BNAccumStats(sums, sumsq, x.Row(i))
		}
		stats[2*l.Dim] = n
		if l.Sync != nil {
			l.Sync(stats)
			n = stats[2*l.Dim]
		}
		l.countN = n
		l.mean = ensureVec(l.mean, l.Dim)
		l.variance = ensureVec(l.variance, l.Dim)
		mean, variance := l.mean, l.variance
		for j := range mean {
			mean[j] = sums[j] / n
			v := sumsq[j]/n - mean[j]*mean[j]
			if v < 0 {
				v = 0 // numerical cancellation guard
			}
			variance[j] = v
		}
		l.invStd = ensureVec(l.invStd, l.Dim)
		for j := range l.invStd {
			l.invStd[j] = 1 / float32(math.Sqrt(float64(variance[j]+l.Eps)))
		}
		l.xhat = tensor.EnsureShapeArena(l.arena, l.xhat, x.Rows, x.Cols)
		for i := 0; i < x.Rows; i++ {
			tensor.BNNormalize(l.xhat.Row(i), out.Row(i), x.Row(i), mean, l.invStd, l.Gamma, l.Beta)
		}
		// Update running statistics (unbiased variance, as PyTorch does).
		unbias := n / float32(math.Max(1, float64(n-1)))
		for j := range mean {
			l.RunMean[j] = (1-l.Momentum)*l.RunMean[j] + l.Momentum*mean[j]
			l.RunVar[j] = (1-l.Momentum)*l.RunVar[j] + l.Momentum*variance[j]*unbias
		}
		return out
	}
	for i := 0; i < x.Rows; i++ {
		xr, or := x.Row(i), out.Row(i)
		for j := range xr {
			inv := 1 / float32(math.Sqrt(float64(l.RunVar[j]+l.Eps)))
			or[j] = l.Gamma[j]*(xr[j]-l.RunMean[j])*inv + l.Beta[j]
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient, written over dout
// once the reductions have read it. With a Sync hook the reduction terms
// are summed across workers, matching the gradient of the
// globally-normalized forward pass.
func (l *BatchNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	nRows := dout.Rows
	n := l.countN
	if n == 0 {
		n = float32(nRows)
	}
	// dGamma_j = sum_i dout_ij * xhat_ij ; dBeta_j = sum_i dout_ij
	l.dstats = ensureVec(l.dstats, 2*l.Dim)
	stats := l.dstats
	clear(stats)
	sumDy := stats[:l.Dim]
	sumDyXhat := stats[l.Dim:]
	for i := 0; i < nRows; i++ {
		tensor.BNAccumGrads(sumDy, sumDyXhat, dout.Row(i), l.xhat.Row(i))
	}
	// Parameter gradients stay local: the trainer's gradient allreduce
	// sums them across workers (summing before and after would double
	// count).
	copy(l.GBeta, sumDy)
	copy(l.GGamma, sumDyXhat)
	if l.Sync != nil {
		l.Sync(stats)
	}
	// dx = (gamma*invStd/n) * (n*dy - sumDy - xhat*sumDyXhat); the leading
	// factor is per feature, so it is worked out once, not once per row.
	l.coef = ensureVec(l.coef, l.Dim)
	for j := range l.coef {
		l.coef[j] = l.Gamma[j] * l.invStd[j] / n
	}
	for i := 0; i < nRows; i++ {
		row := dout.Row(i)
		tensor.BNInputGrad(row, row, l.xhat.Row(i), l.coef, sumDy, sumDyXhat, n)
	}
	return dout
}

// bind implements binder.
func (l *BatchNorm) bind(w, g []float32) ([]float32, []float32) {
	l.Gamma, w = carve(w, l.Gamma)
	l.Beta, w = carve(w, l.Beta)
	l.GGamma, g = carve(g, l.GGamma)
	l.GBeta, g = carve(g, l.GBeta)
	return w, g
}

// Params exposes gamma and beta with their gradients.
func (l *BatchNorm) Params() []Param {
	return []Param{
		{Name: "bn.gamma", W: l.Gamma, G: l.GGamma},
		{Name: "bn.beta", W: l.Beta, G: l.GBeta},
	}
}

// Dropout randomly zeroes activations during training (inverted dropout,
// so inference is the identity).
type Dropout struct {
	P     float32
	rand  *rng.Rand
	mask  []float32
	out   *tensor.Matrix // forward workspace
	arena *arena.Arena
}

// SetArena moves the activation workspaces into a (nil detaches). The
// mask persists Forward→Backward and stays heap-resident.
func (l *Dropout) SetArena(a *arena.Arena) { l.arena = a }

// NewDropout creates a dropout layer with drop probability p, drawing its
// masks from r (one generator per worker keeps runs deterministic).
func NewDropout(p float32, r *rng.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: NewDropout: p=%v out of [0,1)", p))
	}
	return &Dropout{P: p, rand: r}
}

// Forward applies the mask in training mode and is the identity otherwise.
func (l *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || l.P == 0 {
		l.mask = l.mask[:0]
		return x
	}
	l.out = tensor.EnsureShapeArena(l.arena, l.out, x.Rows, x.Cols)
	if cap(l.mask) < len(x.Data) {
		l.mask = make([]float32, len(x.Data))
	}
	l.mask = l.mask[:len(x.Data)]
	scale := 1 / (1 - l.P)
	for i, v := range x.Data {
		if l.rand.Float32() < l.P {
			l.mask[i] = 0
			l.out.Data[i] = 0
		} else {
			l.mask[i] = scale
			l.out.Data[i] = v * scale
		}
	}
	return l.out
}

// Backward applies the same mask to dout and returns it.
func (l *Dropout) Backward(dout *tensor.Matrix) *tensor.Matrix {
	for i, m := range l.mask {
		dout.Data[i] *= m
	}
	return dout
}

// Params returns nil: dropout has no learnable parameters.
func (l *Dropout) Params() []Param { return nil }

// Sequential chains layers. It owns two arenas of one layout: every
// layer's weights, contiguous in Params order, and every layer's gradients,
// the same way. The layers' own tensors (and so every Param.W and Param.G)
// are views of them.
type Sequential struct {
	Layers  []Layer
	weights []float32
	grads   []float32
}

// binder is implemented by every layer that has parameters: bind re-homes
// the layer's weight and gradient tensors, in Params order, as views of the
// fronts of w and g (keeping their current values) and returns what is
// left of each.
type binder interface {
	bind(w, g []float32) (restW, restG []float32)
}

// carve moves one tensor to the front of arena and returns its new home,
// capped so an append can never run into the next tensor, and the rest.
func carve(arena, t []float32) (view, rest []float32) {
	n := copy(arena, t)
	return arena[:n:n], arena[n:]
}

// NewSequential builds a sequential container from the given layers and
// binds their weights and gradients into its arenas. A layer belongs to one
// container: binding it into a second one leaves the first with stale
// arenas. A leading Linear is told it is the input layer, so its Backward
// skips the dy·Wᵀ product and the batch×features workspace that goes with
// it; a Linear anywhere else is told it is not, whatever an earlier
// container made of it.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: layers}
	for i, layer := range layers {
		if l, ok := layer.(*Linear); ok {
			l.input = i == 0
		}
	}
	n := 0
	for _, p := range s.Params() {
		n += len(p.G)
	}
	s.weights, s.grads = make([]float32, n), make([]float32, n)
	restW, restG := s.weights, s.grads
	for _, l := range layers {
		if b, ok := l.(binder); ok {
			restW, restG = b.bind(restW, restG)
		} else if len(l.Params()) > 0 {
			panic(fmt.Sprintf("nn: NewSequential: layer %T has parameters but cannot bind them", l))
		}
	}
	return s
}

// Weights returns the weight arena: all weights, contiguous, in Params
// order — Grads' layout, so Weights()[b.Lo:b.Hi] is a bucket's weights in
// place. The sharded SGD step writes into it and an all-gather fills it.
func (s *Sequential) Weights() []float32 { return s.weights }

// Grads returns the gradient arena: all gradients, contiguous, in
// Params order, so Grads()[b.Lo:b.Hi] is a bucket's gradients in place
// and the whole of it is the buffer an all-reduce averages. Backward writes
// into it and the optimizers read from it through Param.G; nothing copies.
func (s *Sequential) Grads() []float32 { return s.grads }

// SetArena attaches a step arena to every layer that supports one (see
// ArenaUser). The caller owns the arena's Reset cadence: once per
// forward+backward pass, never between a Forward and its Backward.
func (s *Sequential) SetArena(a *arena.Arena) {
	for _, l := range s.Layers {
		if u, ok := l.(ArenaUser); ok {
			u.SetArena(a)
		}
	}
}

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse order and returns the first layer's
// result: the gradient with respect to the model input, or nil when that
// layer is a Linear (see NewSequential).
func (s *Sequential) Backward(dout *tensor.Matrix) *tensor.Matrix {
	return s.BackwardWithHook(dout, nil)
}

// BackwardWithHook runs the layers in reverse order, invoking hook(i)
// immediately after Layers[i].Backward returns — the moment every gradient
// of layers i..len(Layers)-1 has been written and will not change again
// this pass. The overlapped gradient sync uses it to launch a bucket's
// all-reduce while the earlier layers are still computing backward
// (DDP-style communication/computation pipelining). The hook runs on the
// caller's goroutine; time it spends is on the backward critical path, so
// it should only copy-and-launch. A nil hook makes this identical to
// Backward.
func (s *Sequential) BackwardWithHook(dout *tensor.Matrix, hook func(layer int)) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
		if hook != nil {
			hook(i)
		}
	}
	return dout
}

// Params concatenates every layer's parameters.
func (s *Sequential) Params() []Param {
	var out []Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += len(p.W)
	}
	return n
}

// TransferWeights copies weights from src into dst wherever the parameter
// shapes match, skipping mismatched tensors — the transfer-learning
// initializer for the Fig 8 experiment, where the pretrained backbone is
// kept and the classifier head (whose class count differs) is left at its
// fresh initialization. It returns the number of parameters transferred.
func TransferWeights(dst, src []Param) int {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	copied := 0
	for i := 0; i < n; i++ {
		if len(dst[i].W) == len(src[i].W) {
			copy(dst[i].W, src[i].W)
			copied++
		}
	}
	return copied
}

// CopyWeights copies all weights from src params into dst params; shapes
// must match. Used to clone model replicas across workers and for the
// pretrain/fine-tune experiment (Fig 8).
func CopyWeights(dst, src []Param) {
	if len(dst) != len(src) {
		panic("nn: CopyWeights: parameter count mismatch")
	}
	for i := range dst {
		if len(dst[i].W) != len(src[i].W) {
			panic(fmt.Sprintf("nn: CopyWeights: param %d length mismatch", i))
		}
		copy(dst[i].W, src[i].W)
	}
}
