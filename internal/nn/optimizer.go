package nn

import (
	"fmt"

	"plshuffle/internal/tensor"
)

// Optimizer applies one update step to a parameter set given the current
// learning rate.
type Optimizer interface {
	Step(params []Param, lr float32)
	// StepPartial applies the update to params[lo:hi] only, using the same
	// per-parameter state Step would. params must always be the FULL
	// parameter set (state is indexed by position); within one logical
	// iteration the [lo,hi) ranges must tile [0,len(params)) exactly once,
	// in any order. The bucketed gradient sync uses it under LARS to step
	// each bucket the moment its all-reduce lands; any exact tiling
	// produces weights bitwise identical to a single full Step.
	StepPartial(params []Param, lo, hi int, lr float32)
	// StateFloats returns how many moment floats the optimizer holds.
	StateFloats() int
}

// SGD is stochastic gradient descent with momentum and (decoupled-from-
// schedule, coupled-to-gradient) L2 weight decay, matching PyTorch's
// torch.optim.SGD semantics used by the paper's training scripts.
//
// The update is element-wise, so the moments are kept flat, over the
// parameter layout of Sequential.Weights: moments[k] is the momentum of
// flat element lo+k. A full Step materializes all of them; Shard confines
// them to the one chunk a rank owns, which it then steps with StepRange.
type SGD struct {
	Momentum    float32
	WeightDecay float32
	lens        []int // parameter lengths, in Params order (the snapshot's layout)
	lo          int
	moments     []float32
}

// NewSGD creates an SGD optimizer.
func NewSGD(momentum, weightDecay float32) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay}
}

// Shard gives the optimizer the moments of the flat range [lo, hi) of
// params' layout only, zeroed. From then on it can step nothing outside that
// range: the rank owning the range steps it (StepRange) and the others
// receive the updated weights.
func (o *SGD) Shard(params []Param, lo, hi int) {
	o.lens = paramLens(params)
	o.lo, o.moments = lo, make([]float32, hi-lo)
}

// Step applies w -= lr * (momentum-filtered gradient + wd*w).
func (o *SGD) Step(params []Param, lr float32) { o.StepPartial(params, 0, len(params), lr) }

// StepPartial applies the SGD update to params[lo:hi]; see Optimizer.
func (o *SGD) StepPartial(params []Param, lo, hi int, lr float32) {
	if o.lens == nil {
		o.Shard(params, 0, sum(paramLens(params))) // unsharded: every moment
	}
	if len(o.lens) != len(params) {
		panic(fmt.Sprintf("nn: SGD.Step: parameter count changed from %d to %d", len(o.lens), len(params)))
	}
	off := sum(o.lens[:lo])
	for i := lo; i < hi; i++ {
		w := params[i].W
		o.step(w, params[i].G[:len(w)], off, lr)
		off += len(w)
	}
}

// StepRange applies the SGD update to the flat range [lo, hi) of w and g,
// which are the whole weight and gradient arenas (Sequential.Weights and
// Grads). The range must lie inside the moments Shard gave the optimizer.
// Calls on disjoint ranges may run concurrently.
func (o *SGD) StepRange(w, g []float32, lo, hi int, lr float32) {
	o.step(w[lo:hi], g[lo:hi], lo, lr)
}

// step updates w from g with the moments of flat elements [at, at+len(w)).
func (o *SGD) step(w, g []float32, at int, lr float32) {
	k := at - o.lo
	if k < 0 || k+len(w) > len(o.moments) {
		panic(fmt.Sprintf("nn: SGD: step of [%d,%d) outside the moments' range [%d,%d)", at, at+len(w), o.lo, o.lo+len(o.moments)))
	}
	tensor.SGDMomentumStep(w, g, o.moments[k:k+len(w)], lr, o.Momentum, o.WeightDecay)
}

// StateFloats returns how many moment floats the optimizer holds.
func (o *SGD) StateFloats() int { return len(o.moments) }

func paramLens(params []Param) []int {
	lens := make([]int, len(params))
	for i, p := range params {
		lens[i] = len(p.W)
	}
	return lens
}

func sum(s []int) int {
	n := 0
	for _, v := range s {
		n += v
	}
	return n
}

// LARS implements layer-wise adaptive rate scaling (You et al.), which the
// paper applies for large-scale runs (>512 workers for ResNet50) following
// the hyper-parameters of Mikami et al. Each parameter tensor's update is
// scaled by the trust ratio eta*||w|| / (||g|| + wd*||w||).
type LARS struct {
	Momentum    float32
	WeightDecay float32
	Eta         float32 // trust coefficient, typically 0.001..0.01
	// SkipNormOnBiasAndBN applies plain SGD to 1-D parameters (biases and
	// batch-norm scales), the standard practice.
	SkipNormOnBiasAndBN bool
	velocity            [][]float32
	is1D                []bool
}

// NewLARS creates a LARS optimizer with the given trust coefficient.
func NewLARS(momentum, weightDecay, eta float32) *LARS {
	return &LARS{Momentum: momentum, WeightDecay: weightDecay, Eta: eta, SkipNormOnBiasAndBN: true}
}

// Step applies the LARS update.
func (o *LARS) Step(params []Param, lr float32) { o.StepPartial(params, 0, len(params), lr) }

// StateFloats returns how many moment floats the optimizer holds.
func (o *LARS) StateFloats() int {
	n := 0
	for _, v := range o.velocity {
		n += len(v)
	}
	return n
}

// StepPartial applies the LARS update to params[lo:hi]; see Optimizer. The
// trust ratio is per-tensor, so any tiling matches a full Step exactly.
func (o *LARS) StepPartial(params []Param, lo, hi int, lr float32) {
	if o.velocity == nil {
		o.velocity = make([][]float32, len(params))
		o.is1D = make([]bool, len(params))
		for i, p := range params {
			o.velocity[i] = make([]float32, len(p.W))
			// Heuristic: bias and batch-norm parameter names mark 1-D params.
			o.is1D[i] = p.Name == "linear.b" || p.Name == "bn.gamma" || p.Name == "bn.beta"
		}
	}
	for i := lo; i < hi; i++ {
		p := params[i]
		v := o.velocity[i]
		localLR := lr
		wd := o.WeightDecay
		if o.SkipNormOnBiasAndBN && o.is1D[i] {
			wd = 0
		} else {
			wNorm := tensor.Norm2Slice(p.W)
			gNorm := tensor.Norm2Slice(p.G)
			if wNorm > 0 && gNorm > 0 {
				trust := float64(o.Eta) * wNorm / (gNorm + float64(o.WeightDecay)*wNorm)
				localLR = lr * float32(trust)
			}
		}
		for j := range p.W {
			g := p.G[j] + wd*p.W[j]
			v[j] = o.Momentum*v[j] + localLR*g
			p.W[j] -= v[j]
		}
	}
}
