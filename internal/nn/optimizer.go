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
	// in any order. The bucketed gradient sync uses it to step each bucket
	// the moment its all-reduce lands; any exact tiling produces weights
	// bitwise identical to a single full Step.
	StepPartial(params []Param, lo, hi int, lr float32)
}

// SGD is stochastic gradient descent with momentum and (decoupled-from-
// schedule, coupled-to-gradient) L2 weight decay, matching PyTorch's
// torch.optim.SGD semantics used by the paper's training scripts.
type SGD struct {
	Momentum    float32
	WeightDecay float32
	velocity    [][]float32
}

// NewSGD creates an SGD optimizer.
func NewSGD(momentum, weightDecay float32) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies w -= lr * (momentum-filtered gradient + wd*w).
func (o *SGD) Step(params []Param, lr float32) { o.StepPartial(params, 0, len(params), lr) }

// StepPartial applies the SGD update to params[lo:hi]; see Optimizer.
func (o *SGD) StepPartial(params []Param, lo, hi int, lr float32) {
	if o.velocity == nil {
		o.velocity = make([][]float32, len(params))
		for i, p := range params {
			o.velocity[i] = make([]float32, len(p.W))
		}
	}
	if len(o.velocity) != len(params) {
		panic(fmt.Sprintf("nn: SGD.Step: parameter count changed from %d to %d", len(o.velocity), len(params)))
	}
	mom, wd := o.Momentum, o.WeightDecay
	for i := lo; i < hi; i++ {
		w := params[i].W
		tensor.SGDMomentumStep(w, params[i].G[:len(w)], o.velocity[i][:len(w)], lr, mom, wd)
	}
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
