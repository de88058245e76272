// Element-wise kernels of the training step (DESIGN.md §14.6).
//
// Every O(n) loop on the step's critical path — the optimizer update, the
// all-reduce's add and scale, ReLU, BatchNorm's row sweeps — is one
// function here with two bodies:
// the Go loop below, which is the definition, the oracle the tests compare
// against and the only path off amd64 or under the purego tag, and at most
// one AVX2 body (vec_amd64.s) installed over it by the same probe that
// picks the GEMM micro-kernel. The vector bodies are lane-wise independent
// and issue the loop's multiplies, adds and subtracts one by one in the
// loop's own order (never FMA), so each element is bit for bit what the
// loop computes and nothing downstream can tell which body ran.
package tensor

import "fmt"

// vecKernels is the installed body of each element-wise kernel. A body
// takes its length from one operand and trusts the rest to match; the
// exported wrappers check that they do.
type vecKernels struct {
	sgdStep  func(w, grad, v []float32, lr, mom, wd float32)
	add      func(dst, src []float32)
	scale    func(s []float32, f float32)
	relu     func(dst, x []float32)
	reluGrad func(dx, dy, out []float32)
	// BatchNorm's four row sweeps. Columns are lanes and the caller walks
	// the rows in order, so each column's reduction order is the loop's.
	bnStats func(sum, sumsq, x []float32)
	bnNorm  func(xhat, out, x, mean, invStd, gamma, beta []float32)
	bnGrads func(sumDy, sumDyXhat, dy, xhat []float32)
	bnDX    func(dx, dy, xhat, coef, sumDy, sumDyXhat []float32, n float32)
}

// goVec is the portable body of every kernel.
var goVec = vecKernels{
	sgdStep:  sgdStepGo,
	add:      addGo,
	scale:    scaleGo,
	relu:     reluGo,
	reluGrad: reluGradGo,
	bnStats:  bnStatsGo,
	bnNorm:   bnNormGo,
	bnGrads:  bnGradsGo,
	bnDX:     bnDXGo,
}

// vec is the dispatched set: goVec unless registerAsmKernels replaced it.
// Set once during init, read without synchronization.
var vec = goVec

func sameLen(kernel string, want int, others ...[]float32) {
	for _, o := range others {
		if len(o) != want {
			panic(fmt.Sprintf("tensor: %s: operand lengths %d and %d differ", kernel, want, len(o)))
		}
	}
}

// SGDMomentumStep applies one momentum-SGD update with coupled weight
// decay to a parameter tensor: g = grad + wd·w; v = mom·v + g; w -= lr·v.
func SGDMomentumStep(w, grad, v []float32, lr, mom, wd float32) {
	sameLen("SGDMomentumStep", len(w), grad, v)
	vec.sgdStep(w, grad, v, lr, mom, wd)
}

func sgdStepGo(w, grad, v []float32, lr, mom, wd float32) {
	grad, v = grad[:len(w)], v[:len(w)]
	for j := range w {
		g := grad[j] + wd*w[j]
		v[j] = mom*v[j] + g
		w[j] -= lr * v[j]
	}
}

// AddInto computes dst += src.
func AddInto(dst, src []float32) {
	sameLen("AddInto", len(dst), src)
	vec.add(dst, src)
}

func addGo(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// ScaleSlice computes s *= f.
func ScaleSlice(s []float32, f float32) { vec.scale(s, f) }

func scaleGo(s []float32, f float32) {
	for i := range s {
		s[i] *= f
	}
}

// ReLUInto computes dst = x where x > 0 or x is NaN, +0 elsewhere (so
// -0 maps to +0).
func ReLUInto(dst, x []float32) {
	sameLen("ReLUInto", len(dst), x)
	vec.relu(dst, x)
}

func reluGo(dst, x []float32) {
	x = x[:len(dst)]
	for i, v := range x {
		if v <= 0 {
			v = 0
		}
		dst[i] = v
	}
}

// ReLUGradInto computes dx = dy where ReLU let its input through and +0
// elsewhere, reading the decision back from the forward output out: an
// element passed iff it is not ≤ 0, which holds for exactly the positive
// and the NaN inputs ReLUInto copied.
func ReLUGradInto(dx, dy, out []float32) {
	sameLen("ReLUGradInto", len(dx), dy, out)
	vec.reluGrad(dx, dy, out)
}

func reluGradGo(dx, dy, out []float32) {
	dy, out = dy[:len(dx)], out[:len(dx)]
	for i, o := range out {
		g := dy[i]
		if o <= 0 {
			g = 0
		}
		dx[i] = g
	}
}

// BNAccumStats folds one batch row into BatchNorm's per-feature sums:
// sum += x; sumsq += x·x.
func BNAccumStats(sum, sumsq, x []float32) {
	sameLen("BNAccumStats", len(x), sum, sumsq)
	vec.bnStats(sum, sumsq, x)
}

func bnStatsGo(sum, sumsq, x []float32) {
	sum, sumsq = sum[:len(x)], sumsq[:len(x)]
	for j, v := range x {
		sum[j] += v
		sumsq[j] += v * v
	}
}

// BNNormalize normalizes one batch row and applies the affine map:
// xhat = (x - mean)·invStd; out = gamma·xhat + beta.
func BNNormalize(xhat, out, x, mean, invStd, gamma, beta []float32) {
	sameLen("BNNormalize", len(x), xhat, out, mean, invStd, gamma, beta)
	vec.bnNorm(xhat, out, x, mean, invStd, gamma, beta)
}

func bnNormGo(xhat, out, x, mean, invStd, gamma, beta []float32) {
	n := len(x)
	xhat, out, mean, invStd, gamma, beta = xhat[:n], out[:n], mean[:n], invStd[:n], gamma[:n], beta[:n]
	for j, v := range x {
		h := (v - mean[j]) * invStd[j]
		xhat[j] = h
		out[j] = gamma[j]*h + beta[j]
	}
}

// BNAccumGrads folds one row of the output gradient into BatchNorm's
// per-feature reductions: sumDy += dy; sumDyXhat += dy·xhat.
func BNAccumGrads(sumDy, sumDyXhat, dy, xhat []float32) {
	sameLen("BNAccumGrads", len(dy), sumDy, sumDyXhat, xhat)
	vec.bnGrads(sumDy, sumDyXhat, dy, xhat)
}

func bnGradsGo(sumDy, sumDyXhat, dy, xhat []float32) {
	n := len(dy)
	sumDy, sumDyXhat, xhat = sumDy[:n], sumDyXhat[:n], xhat[:n]
	for j, d := range dy {
		sumDy[j] += d
		sumDyXhat[j] += d * xhat[j]
	}
}

// BNInputGrad computes one row of BatchNorm's input gradient:
// dx = coef·(n·dy - sumDy - xhat·sumDyXhat), coef being the per-feature
// gamma·invStd/n.
func BNInputGrad(dx, dy, xhat, coef, sumDy, sumDyXhat []float32, n float32) {
	sameLen("BNInputGrad", len(dx), dy, xhat, coef, sumDy, sumDyXhat)
	vec.bnDX(dx, dy, xhat, coef, sumDy, sumDyXhat, n)
}

func bnDXGo(dx, dy, xhat, coef, sumDy, sumDyXhat []float32, n float32) {
	m := len(dx)
	dy, xhat, coef, sumDy, sumDyXhat = dy[:m], xhat[:m], coef[:m], sumDy[:m], sumDyXhat[:m]
	for j := range dx {
		dx[j] = coef[j] * (n*dy[j] - sumDy[j] - xhat[j]*sumDyXhat[j])
	}
}
