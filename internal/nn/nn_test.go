package nn

import (
	"math"
	"testing"

	"plshuffle/internal/rng"
	"plshuffle/internal/tensor"
)

// lossOf runs a forward pass and returns the mean cross-entropy loss.
func lossOf(model *Sequential, x *tensor.Matrix, labels []int, train bool) float64 {
	var ce SoftmaxCrossEntropy
	return ce.Forward(model.Forward(x, train), labels)
}

// gradCheck compares analytic gradients against central differences for
// every parameter of the model. BatchNorm in training mode recomputes batch
// statistics on every forward, which central differences capture, so the
// check covers it too.
func gradCheck(t *testing.T, model *Sequential, x *tensor.Matrix, labels []int) {
	t.Helper()
	var ce SoftmaxCrossEntropy
	logits := model.Forward(x, true)
	ce.Forward(logits, labels)
	model.Backward(ce.Backward())

	const eps = 1e-2
	params := model.Params()
	checked := 0
	for pi, p := range params {
		// Probe a handful of coordinates per tensor to keep runtime sane.
		stride := len(p.W)/7 + 1
		for j := 0; j < len(p.W); j += stride {
			orig := p.W[j]
			p.W[j] = orig + eps
			lPlus := lossOf(model, x, labels, true)
			p.W[j] = orig - eps
			lMinus := lossOf(model, x, labels, true)
			p.W[j] = orig
			numeric := (lPlus - lMinus) / (2 * eps)
			analytic := float64(p.G[j])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-3, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 0.08 {
				t.Errorf("param %d (%s) coord %d: analytic %v vs numeric %v", pi, p.Name, j, analytic, numeric)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("gradCheck probed no coordinates")
	}
}

func smallBatch(r *rng.Rand, n, dim, classes int) (*tensor.Matrix, []int) {
	x := tensor.New(n, dim)
	x.Randn(r, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	return x, labels
}

func TestLinearForwardKnown(t *testing.T) {
	l := &Linear{In: 2, Out: 2,
		W:  tensor.FromSlice(2, 2, []float32{1, 2, 3, 4}),
		B:  []float32{10, 20},
		GW: tensor.New(2, 2), GB: make([]float32, 2)}
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	y := l.Forward(x, true)
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("Linear forward got %v", y.Data)
	}
}

func TestGradCheckLinearOnly(t *testing.T) {
	r := rng.New(11)
	model := NewSequential(NewLinear(5, 4, r), NewLinear(4, 3, r))
	x, labels := smallBatch(r, 6, 5, 3)
	gradCheck(t, model, x, labels)
}

func TestGradCheckWithReLU(t *testing.T) {
	r := rng.New(12)
	model := NewSequential(NewLinear(5, 8, r), NewReLU(), NewLinear(8, 3, r))
	x, labels := smallBatch(r, 6, 5, 3)
	gradCheck(t, model, x, labels)
}

func TestGradCheckWithBatchNorm(t *testing.T) {
	r := rng.New(13)
	model := NewSequential(NewLinear(5, 6, r), NewBatchNorm(6), NewReLU(), NewLinear(6, 3, r))
	x, labels := smallBatch(r, 8, 5, 3)
	gradCheck(t, model, x, labels)
}

// TestSequentialSkipsOnlyInputGradient pins what NewSequential's input-layer
// mark changes: nothing but the unread dx. The same layers built from the
// same seed and run by hand — every Backward returning its dx — leave
// bitwise-identical parameter gradients, at a shape that takes the packed
// GEMM core (in-place arms included) and one that takes the reference loops.
func TestSequentialSkipsOnlyInputGradient(t *testing.T) {
	for _, shape := range [][4]int{{6, 5, 8, 3}, {64, 300, 8, 16}} {
		batch, in, hidden, classes := shape[0], shape[1], shape[2], shape[3]
		build := func() []Layer {
			r := rng.New(31)
			return []Layer{NewLinear(in, hidden, r), NewBatchNorm(hidden), NewReLU(), NewLinear(hidden, classes, r)}
		}
		x, labels := smallBatch(rng.New(32), batch, in, classes)

		model := NewSequential(build()...)
		var ce SoftmaxCrossEntropy
		ce.Forward(model.Forward(x, true), labels)
		if dx := model.Backward(ce.Backward()); dx != nil {
			t.Fatalf("%v: Sequential.Backward returned a %dx%d input gradient, want nil", shape, dx.Rows, dx.Cols)
		}

		byHand := build()
		h := x
		for _, l := range byHand {
			h = l.Forward(h, true)
		}
		var ceHand SoftmaxCrossEntropy
		ceHand.Forward(h, labels)
		d := ceHand.Backward()
		for i := len(byHand) - 1; i >= 0; i-- {
			d = byHand[i].Backward(d)
		}
		if d == nil || d.Rows != batch || d.Cols != in {
			t.Fatalf("%v: layers run by hand returned input gradient %v, want %dx%d", shape, d, batch, in)
		}

		got := model.Params()
		var want []Param
		for _, l := range byHand {
			want = append(want, l.Params()...)
		}
		for pi := range want {
			for j := range want[pi].G {
				if math.Float32bits(got[pi].G[j]) != math.Float32bits(want[pi].G[j]) {
					t.Fatalf("%v: param %d (%s) grad %d: sequential %v != by hand %v",
						shape, pi, want[pi].Name, j, got[pi].G[j], want[pi].G[j])
				}
			}
		}
	}
}

// TestLinearBackwardStandaloneReturnsDX: a Linear outside a Sequential
// still returns dx = dy·Wᵀ.
func TestLinearBackwardStandaloneReturnsDX(t *testing.T) {
	r := rng.New(33)
	l := NewLinear(7, 3, r)
	x := tensor.New(5, 7)
	x.Randn(r, 1)
	dy := tensor.New(5, 3)
	dy.Randn(r, 1)
	l.Forward(x, true)
	dx := l.Backward(dy)
	if dx == nil || dx.Rows != 5 || dx.Cols != 7 {
		t.Fatalf("standalone Linear.Backward returned %v, want a 5x7 dx", dx)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			var want float32
			for o := 0; o < 3; o++ {
				want += dy.At(i, o) * l.W.At(j, o)
			}
			if dx.At(i, j) != want {
				t.Fatalf("dx[%d,%d] = %v, want %v", i, j, dx.At(i, j), want)
			}
		}
	}

	// The input mark follows the layer's latest binding: leading a
	// container it returns nil even when called directly, and bound again
	// behind another layer it returns dx again.
	NewSequential(l)
	l.Forward(x, true)
	if dx := l.Backward(dy); dx != nil {
		t.Fatalf("Linear bound as an input layer returned a %dx%d dx, want nil", dx.Rows, dx.Cols)
	}
	NewSequential(NewReLU(), l)
	l.Forward(x, true)
	if dx := l.Backward(dy); dx == nil {
		t.Fatal("Linear bound again behind another layer kept its input mark")
	}
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU()
	x := tensor.FromSlice(1, 4, []float32{-1, 0, 2, -3})
	y := l.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU forward got %v", y.Data)
		}
	}
	d := l.Backward(tensor.FromSlice(1, 4, []float32{1, 1, 1, 1}))
	wantd := []float32{0, 0, 1, 0}
	for i := range wantd {
		if d.Data[i] != wantd[i] {
			t.Fatalf("ReLU backward got %v", d.Data)
		}
	}
}

// TestReLUNaNAndNegativeZero pins, through the layer, the two inputs a
// comparison-and-mask can get wrong: a NaN passes forward with its bits and
// its gradient passes back (the old `v <= 0` branch was false for NaN, so
// the mask was set); -0 comes out +0 and blocks its gradient. The backward
// mask is read from the forward output, not kept beside it.
func TestReLUNaNAndNegativeZero(t *testing.T) {
	nan := math.Float32frombits(0x7fc00abc)
	negZero := float32(math.Copysign(0, -1))
	l := NewReLU()
	y := l.Forward(tensor.FromSlice(1, 4, []float32{nan, negZero, 3, -3}), true)
	for i, want := range []uint32{0x7fc00abc, 0, math.Float32bits(3), 0} {
		if got := math.Float32bits(y.Data[i]); got != want {
			t.Errorf("forward element %d: %#08x, want %#08x", i, got, want)
		}
	}
	d := l.Backward(tensor.FromSlice(1, 4, []float32{5, 6, 7, 8}))
	for i, want := range []float32{5, 0, 7, 0} {
		if got := d.Data[i]; math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("backward element %d: %v, want %v", i, got, want)
		}
	}
}

// TestBatchNormMatchesElementLoops holds the layer, whose four row sweeps
// run as tensor kernels, to the per-element loops it used to spell out —
// including gamma·invStd/n, now worked out once per feature instead of once
// per element — bit for bit, at a ragged width and at a vector-friendly one.
func TestBatchNormMatchesElementLoops(t *testing.T) {
	r := rng.New(31)
	for _, dim := range []int{13, 64} {
		const rows = 9
		bn := NewBatchNorm(dim)
		x, dy := tensor.New(rows, dim), tensor.New(rows, dim)
		x.Randn(r, 2)
		dy.Randn(r, 1)
		for j := range bn.Gamma {
			bn.Gamma[j], bn.Beta[j] = 0.5+r.Float32(), r.Float32()-0.5
		}
		out := bn.Forward(x, true).Clone()
		dx := dy.Clone() // Backward writes the gradient over its dout
		if got := bn.Backward(dx); got != dx {
			t.Fatalf("dim %d: Backward returned a matrix other than its dout", dim)
		}

		n := float32(rows)
		sums, sumsq := make([]float32, dim), make([]float32, dim)
		for i := 0; i < rows; i++ {
			for j, v := range x.Row(i) {
				sums[j] += v
				sumsq[j] += v * v
			}
		}
		mean, invStd := make([]float32, dim), make([]float32, dim)
		for j := range mean {
			mean[j] = sums[j] / n
			v := sumsq[j]/n - mean[j]*mean[j]
			if v < 0 {
				v = 0
			}
			invStd[j] = 1 / float32(math.Sqrt(float64(v+bn.Eps)))
		}
		xhat, wantOut := tensor.New(rows, dim), tensor.New(rows, dim)
		sumDy, sumDyXhat := make([]float32, dim), make([]float32, dim)
		for i := 0; i < rows; i++ {
			for j, v := range x.Row(i) {
				h := (v - mean[j]) * invStd[j]
				xhat.Set(i, j, h)
				wantOut.Set(i, j, bn.Gamma[j]*h+bn.Beta[j])
				sumDy[j] += dy.At(i, j)
				sumDyXhat[j] += dy.At(i, j) * h
			}
		}
		wantDx := tensor.New(rows, dim)
		for i := 0; i < rows; i++ {
			for j := 0; j < dim; j++ {
				wantDx.Set(i, j, bn.Gamma[j]*invStd[j]/n*(n*dy.At(i, j)-sumDy[j]-xhat.At(i, j)*sumDyXhat[j]))
			}
		}
		for i := range out.Data {
			if math.Float32bits(out.Data[i]) != math.Float32bits(wantOut.Data[i]) {
				t.Fatalf("dim %d: forward element %d: %v, want %v", dim, i, out.Data[i], wantOut.Data[i])
			}
			if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx.Data[i]) {
				t.Fatalf("dim %d: dx element %d: %v, want %v", dim, i, dx.Data[i], wantDx.Data[i])
			}
		}
		for j := 0; j < dim; j++ {
			if math.Float32bits(bn.GBeta[j]) != math.Float32bits(sumDy[j]) || math.Float32bits(bn.GGamma[j]) != math.Float32bits(sumDyXhat[j]) {
				t.Fatalf("dim %d: parameter gradient %d differs from the element loop", dim, j)
			}
		}
	}
}

func TestBatchNormTrainNormalizes(t *testing.T) {
	r := rng.New(14)
	bn := NewBatchNorm(4)
	x := tensor.New(64, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()*3 + 7 // mean 7, std 3
	}
	y := bn.Forward(x, true)
	for j, sum := range y.ColSum() {
		if m := sum / float32(y.Rows); math.Abs(float64(m)) > 1e-4 {
			t.Errorf("feature %d mean %v, want ~0", j, m)
		}
	}
	variance := make([]float64, 4)
	for i := 0; i < y.Rows; i++ {
		for j, v := range y.Row(i) {
			variance[j] += float64(v) * float64(v)
		}
	}
	for j := range variance {
		variance[j] /= float64(y.Rows)
		if math.Abs(variance[j]-1) > 0.01 {
			t.Errorf("feature %d variance %v, want ~1", j, variance[j])
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	r := rng.New(15)
	bn := NewBatchNorm(1)
	for step := 0; step < 200; step++ {
		x := tensor.New(128, 1)
		for i := range x.Data {
			x.Data[i] = r.NormFloat32()*2 + 5
		}
		bn.Forward(x, true)
	}
	if math.Abs(float64(bn.RunMean[0])-5) > 0.2 {
		t.Errorf("running mean %v, want ~5", bn.RunMean[0])
	}
	if math.Abs(float64(bn.RunVar[0])-4) > 0.5 {
		t.Errorf("running var %v, want ~4", bn.RunVar[0])
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm(1)
	bn.RunMean[0] = 10
	bn.RunVar[0] = 4
	x := tensor.FromSlice(1, 1, []float32{12})
	y := bn.Forward(x, false)
	// (12-10)/sqrt(4+eps) ~= 1
	if math.Abs(float64(y.Data[0])-1) > 1e-3 {
		t.Fatalf("eval BN output %v, want ~1", y.Data[0])
	}
}

func TestBatchNormLocalStatsBias(t *testing.T) {
	// The mechanism behind the paper's LS degradation: two workers with
	// differently-biased local data accumulate different running stats.
	mk := func(offset float32) *BatchNorm {
		r := rng.New(uint64(offset) + 100)
		bn := NewBatchNorm(1)
		for step := 0; step < 100; step++ {
			x := tensor.New(32, 1)
			for i := range x.Data {
				x.Data[i] = r.NormFloat32() + offset
			}
			bn.Forward(x, true)
		}
		return bn
	}
	a, b := mk(0), mk(5)
	if math.Abs(float64(a.RunMean[0]-b.RunMean[0])) < 3 {
		t.Fatalf("expected diverged running means, got %v vs %v", a.RunMean[0], b.RunMean[0])
	}
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	r := rng.New(16)
	d := NewDropout(0.5, r)
	x := tensor.New(100, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y := d.Forward(x, true)
	zeros := 0
	var sum float64
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		}
		sum += float64(v)
	}
	frac := float64(zeros) / float64(len(y.Data))
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("dropout zeroed %v of activations, want ~0.5", frac)
	}
	// Inverted dropout keeps the expectation: mean should stay ~1.
	mean := sum / float64(len(y.Data))
	if math.Abs(mean-1) > 0.1 {
		t.Errorf("dropout mean %v, want ~1", mean)
	}
	// Eval mode is identity.
	ye := d.Forward(x, false)
	for i := range ye.Data {
		if ye.Data[i] != 1 {
			t.Fatal("dropout eval mode is not identity")
		}
	}
}

func TestDropoutBackwardUsesSameMask(t *testing.T) {
	r := rng.New(17)
	d := NewDropout(0.3, r)
	x := tensor.New(10, 10)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y := d.Forward(x, true)
	ones := tensor.New(10, 10)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	g := d.Backward(ones)
	for i := range g.Data {
		if (y.Data[i] == 0) != (g.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	var ce SoftmaxCrossEntropy
	logits := tensor.FromSlice(1, 2, []float32{0, 0})
	loss := ce.Forward(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("uniform logits loss = %v, want ln2", loss)
	}
	grad := ce.Backward()
	// probs = [.5,.5]; grad = [.5-1, .5]/1
	if math.Abs(float64(grad.Data[0])+0.5) > 1e-6 || math.Abs(float64(grad.Data[1])-0.5) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	var ce SoftmaxCrossEntropy
	logits := tensor.FromSlice(1, 3, []float32{1000, 999, -1000})
	loss := ce.Forward(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v with large logits", loss)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 0})
	if a := Accuracy(logits, []int{0, 1, 1}); math.Abs(a-2.0/3) > 1e-9 {
		t.Fatalf("accuracy = %v", a)
	}
	if a := Accuracy(tensor.New(0, 2), nil); a != 0 {
		t.Fatalf("empty accuracy = %v", a)
	}
}

func TestSGDQuadraticConvergence(t *testing.T) {
	// Minimize f(w) = (w-3)^2 by hand-fed gradients.
	w := []float32{0}
	g := []float32{0}
	p := []Param{{Name: "w", W: w, G: g}}
	opt := NewSGD(0.9, 0)
	for i := 0; i < 200; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.Step(p, 0.05)
	}
	if math.Abs(float64(w[0])-3) > 1e-3 {
		t.Fatalf("SGD converged to %v, want 3", w[0])
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	w := []float32{1}
	g := []float32{0}
	p := []Param{{Name: "w", W: w, G: g}}
	opt := NewSGD(0, 0.5)
	opt.Step(p, 0.1)
	// w -= lr * wd * w => 1 - 0.1*0.5 = 0.95
	if math.Abs(float64(w[0])-0.95) > 1e-6 {
		t.Fatalf("weight decay step got %v, want 0.95", w[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	w := []float32{0}
	g := []float32{1}
	p := []Param{{Name: "w", W: w, G: g}}
	opt := NewSGD(0.9, 0)
	opt.Step(p, 1) // v=1, w=-1
	opt.Step(p, 1) // v=1.9, w=-2.9
	if math.Abs(float64(w[0])+2.9) > 1e-6 {
		t.Fatalf("momentum got %v, want -2.9", w[0])
	}
}

func TestLARSConvergesOnQuadratic(t *testing.T) {
	w := []float32{10}
	g := []float32{0}
	p := []Param{{Name: "linear.W", W: w, G: g}}
	opt := NewLARS(0.9, 0, 0.01)
	for i := 0; i < 500; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.Step(p, 1.0)
	}
	if math.Abs(float64(w[0])-3) > 0.1 {
		t.Fatalf("LARS converged to %v, want ~3", w[0])
	}
}

func TestLARSSkipsBiasTrustRatio(t *testing.T) {
	w := []float32{1}
	g := []float32{1}
	p := []Param{{Name: "linear.b", W: w, G: g}}
	opt := NewLARS(0, 0.5, 0.001)
	opt.Step(p, 0.1)
	// For 1-D params LARS falls back to plain SGD without weight decay:
	// w -= lr * g = 1 - 0.1
	if math.Abs(float64(w[0])-0.9) > 1e-6 {
		t.Fatalf("LARS bias step got %v, want 0.9", w[0])
	}
}

func TestSchedules(t *testing.T) {
	c := Constant{Base: 0.1}
	if c.LR(0) != 0.1 || c.LR(100) != 0.1 {
		t.Fatal("Constant schedule not constant")
	}
	sd := StepDecay{Base: 1, Gamma: 0.1, Milestones: []float64{30, 60}}
	if sd.LR(0) != 1 || sd.LR(29.9) != 1 {
		t.Fatal("StepDecay before milestone wrong")
	}
	if math.Abs(float64(sd.LR(30))-0.1) > 1e-6 || math.Abs(float64(sd.LR(60))-0.01) > 1e-6 {
		t.Fatalf("StepDecay milestones wrong: %v %v", sd.LR(30), sd.LR(60))
	}
	w := Warmup{Inner: Constant{Base: 1}, Epochs: 5, StartFactor: 0.1}
	if math.Abs(float64(w.LR(0))-0.1) > 1e-6 {
		t.Fatalf("Warmup start = %v", w.LR(0))
	}
	if w.LR(5) != 1 || w.LR(10) != 1 {
		t.Fatal("Warmup end wrong")
	}
	if w.LR(2.5) <= 0.1 || w.LR(2.5) >= 1 {
		t.Fatalf("Warmup midpoint = %v", w.LR(2.5))
	}
}

func TestModelSpecValidate(t *testing.T) {
	cases := []ModelSpec{
		{Name: "bad-input", InputDim: 0, Classes: 2},
		{Name: "bad-classes", InputDim: 2, Classes: 1},
		{Name: "bad-hidden", InputDim: 2, Classes: 2, Hidden: []int{0}},
		{Name: "bad-dropout", InputDim: 2, Classes: 2, Dropout: 1.5},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("spec %q validated but should not", c.Name)
		}
	}
	good := ModelSpec{Name: "ok", InputDim: 4, Classes: 3, Hidden: []int{8}}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestModelBuildDeterministicInit(t *testing.T) {
	spec := ModelSpec{Name: "t", InputDim: 6, Hidden: []int{8, 4}, Classes: 3, BatchNorm: true}
	a, err := spec.Build(42, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build(42, 2) // different dropout seed must not matter
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W {
			if pa[i].W[j] != pb[i].W[j] {
				t.Fatalf("same init seed produced different weights at %d/%d", i, j)
			}
		}
	}
}

func TestProxySpecsExist(t *testing.T) {
	for name := range proxySpecs {
		s, err := ProxySpec(name)
		if err != nil {
			t.Fatalf("ProxySpec(%q): %v", name, err)
		}
		m, err := s.WithData(16, 10).Build(1, 2)
		if err != nil {
			t.Fatalf("building %q: %v", name, err)
		}
		if m.NumParams() == 0 {
			t.Fatalf("%q has no parameters", name)
		}
	}
	if _, err := ProxySpec("nope"); err == nil {
		t.Fatal("unknown proxy name did not error")
	}
}

func TestFlattenGradsSnapshot(t *testing.T) {
	r := rng.New(20)
	spec := ModelSpec{Name: "t", InputDim: 5, Hidden: []int{7}, Classes: 3, BatchNorm: true}
	m, err := spec.Build(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	for _, p := range params {
		for j := range p.G {
			p.G[j] = r.NormFloat32()
		}
	}
	flat := FlattenGrads(params, nil)
	if len(flat) != m.NumParams() {
		t.Fatalf("flat length %d, want %d", len(flat), m.NumParams())
	}
	saved := append([]float32(nil), flat...)
	// A snapshot, not a view: later gradients do not show through, and a
	// right-sized dst is reused.
	for _, p := range params {
		clear(p.G)
	}
	for i := range saved {
		if flat[i] != saved[i] {
			t.Fatalf("snapshot element %d changed with the gradients", i)
		}
	}
	if again := FlattenGrads(params, flat); &again[0] != &flat[0] || again[len(again)-1] != 0 {
		t.Fatal("FlattenGrads must refill a dst of the right length in place")
	}
}

func TestCopyWeights(t *testing.T) {
	spec := ModelSpec{Name: "t", InputDim: 4, Hidden: []int{5}, Classes: 2}
	a, _ := spec.Build(1, 1)
	b, _ := spec.Build(2, 2)
	CopyWeights(b.Params(), a.Params())
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W {
			if pa[i].W[j] != pb[i].W[j] {
				t.Fatal("CopyWeights did not copy")
			}
		}
	}
}

// TestEndToEndLearning trains a small MLP on a linearly separable synthetic
// problem and requires high training accuracy — the learning smoke test.
func TestEndToEndLearning(t *testing.T) {
	r := rng.New(7)
	const n, dim, classes = 256, 8, 4
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		for j := 0; j < dim; j++ {
			v := r.NormFloat32() * 0.3
			if j == c {
				v += 2
			}
			x.Set(i, j, v)
		}
	}
	spec := ModelSpec{Name: "t", InputDim: dim, Hidden: []int{32}, Classes: classes, BatchNorm: true}
	model, err := spec.Build(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.9, 1e-4)
	var ce SoftmaxCrossEntropy
	for epoch := 0; epoch < 30; epoch++ {
		logits := model.Forward(x, true)
		ce.Forward(logits, labels)
		model.Backward(ce.Backward())
		opt.Step(model.Params(), 0.1)
	}
	acc := Accuracy(model.Forward(x, false), labels)
	if acc < 0.95 {
		t.Fatalf("end-to-end training accuracy %v, want >= 0.95", acc)
	}
}

func BenchmarkForwardBackward(b *testing.B) {
	r := rng.New(1)
	spec := ModelSpec{Name: "bench", InputDim: 64, Hidden: []int{128, 128, 64}, Classes: 32, BatchNorm: true}
	model, err := spec.Build(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	x, labels := smallBatch(r, 32, 64, 32)
	var ce SoftmaxCrossEntropy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := model.Forward(x, true)
		ce.Forward(logits, labels)
		model.Backward(ce.Backward())
	}
}
