package nn

import (
	"fmt"
	"math"

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
	Nesterov    bool
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
		// Same length for all three, stated once, so the Nesterov loop runs
		// without a bounds check per element; the plain arm is the tensor
		// kernel every workload runs.
		w := params[i].W
		grad, v := params[i].G[:len(w)], o.velocity[i][:len(w)]
		if o.Nesterov {
			for j := range w {
				g := grad[j] + wd*w[j]
				v[j] = mom*v[j] + g
				w[j] -= lr * (g + mom*v[j])
			}
			continue
		}
		tensor.SGDMomentumStep(w, grad, v, lr, mom, wd)
	}
}

// LAMB implements layer-wise adaptive moments (You et al., ICLR 2020),
// the successor to LARS for very-large-batch training: Adam-style first
// and second moment estimates, with each tensor's update rescaled by the
// trust ratio ||w|| / ||update||. Included because the paper's large-batch
// regimes (Fig 6's 65,536 global batch) are exactly LAMB's target setting.
type LAMB struct {
	Beta1, Beta2 float32
	Eps          float32
	WeightDecay  float32
	m, v         [][]float32
	update       []float32 // per-step workspace, reused across tensors
	step         int
	// covered counts parameters stepped in the current logical iteration;
	// the step counter (bias correction) advances exactly once per full
	// tiling, so partial (per-bucket) stepping matches a single full Step
	// bit for bit.
	covered int
}

// NewLAMB creates a LAMB optimizer with the standard moment coefficients.
func NewLAMB(weightDecay float32) *LAMB {
	return &LAMB{Beta1: 0.9, Beta2: 0.999, Eps: 1e-6, WeightDecay: weightDecay}
}

// Step applies one LAMB update.
func (o *LAMB) Step(params []Param, lr float32) { o.StepPartial(params, 0, len(params), lr) }

// StepPartial applies the LAMB update to params[lo:hi]; see Optimizer. The
// bias-correction step counter advances on the first partial call of each
// iteration and the tiling is tracked by parameter count, so every bucket
// of one iteration shares the same correction factors.
func (o *LAMB) StepPartial(params []Param, lo, hi int, lr float32) {
	if o.m == nil {
		o.m = make([][]float32, len(params))
		o.v = make([][]float32, len(params))
		for i, p := range params {
			o.m[i] = make([]float32, len(p.W))
			o.v[i] = make([]float32, len(p.W))
		}
	}
	if o.covered == 0 {
		o.step++
	}
	o.covered += hi - lo
	if o.covered >= len(params) {
		o.covered = 0
	}
	bc1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.step)))
	bc2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.step)))
	for i := lo; i < hi; i++ {
		p := params[i]
		m, v := o.m[i], o.v[i]
		o.update = ensureVec(o.update, len(p.W))
		update := o.update
		for j, g := range p.G {
			m[j] = o.Beta1*m[j] + (1-o.Beta1)*g
			v[j] = o.Beta2*v[j] + (1-o.Beta2)*g*g
			mHat := m[j] / bc1
			vHat := v[j] / bc2
			update[j] = mHat/(float32(math.Sqrt(float64(vHat)))+o.Eps) + o.WeightDecay*p.W[j]
		}
		wNorm := tensor.Norm2Slice(p.W)
		uNorm := tensor.Norm2Slice(update)
		trust := float32(1)
		if wNorm > 0 && uNorm > 0 {
			trust = float32(wNorm / uNorm)
		}
		for j := range p.W {
			p.W[j] -= lr * trust * update[j]
		}
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
