// Element-wise kernels of the training step (DESIGN.md §14.6).
//
// Every O(n) loop on the step's critical path — the optimizer update, the
// all-reduce's add and scale, ReLU, BatchNorm's row sweeps, and the lean
// sample wire's fp16 narrow and widen — is one function here with two
// bodies:
// the Go loop below, which is the definition, the oracle the tests compare
// against and the only path off amd64 or under the purego tag, and at most
// one vector body (vec_amd64.s) installed over it by the same probe that
// picks the GEMM micro-kernel. The vector bodies are lane-wise independent
// and issue the loop's multiplies, adds and subtracts one by one in the
// loop's own order (never FMA), so each element is bit for bit what the
// loop computes and nothing downstream can tell which body ran. The fp16
// pair converts with the hardware instead and keeps only the blocks of 8 it
// can prove are the loop's, handing every other block to the loop.
package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

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
	// f16c selects the vector bodies of the fp16 pair (the narrowFP16 and
	// widenFP16 methods). A flag and direct calls, not function values: a
	// slice passed through a function value escapes, and data's
	// representability check narrows into a buffer on its stack.
	f16c bool
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
// and the NaN inputs ReLUInto copied. dx may be dy (nn.ReLU's in-place
// backward): every body reads an element before it writes it.
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
// gamma·invStd/n. dx may be dy, as for ReLUGradInto.
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

// --- IEEE 754 binary16: the lean sample wire's conversions (DESIGN.md §13.3) ---

// NarrowFP16Exact writes src into dst as little-endian halves, two bytes an
// element, and reports whether every element survives the fp16 round trip
// bit for bit. When it reports false dst holds nothing meaningful: the
// caller keeps the floats (data's v2 codec rolls the entry back to fp32).
func NarrowFP16Exact(dst []byte, src []float32) bool {
	halfLen("NarrowFP16Exact", dst, src)
	return vec.narrowFP16(dst, src)
}

// WidenFP16 widens the little-endian halves in src into dst. Every half
// widens exactly.
func WidenFP16(dst []float32, src []byte) {
	halfLen("WidenFP16", src, dst)
	vec.widenFP16(dst, src)
}

func halfLen(kernel string, halves []byte, floats []float32) {
	if len(halves) != 2*len(floats) {
		panic(fmt.Sprintf("tensor: %s: %d bytes of halves for %d floats", kernel, len(halves), len(floats)))
	}
}

// narrowFP16 and widenFP16 are k's bodies of the pair; dst holds 2 bytes
// per float.
func (k *vecKernels) narrowFP16(dst []byte, src []float32) bool {
	if k.f16c {
		return narrowFP16F16C(dst, src)
	}
	return narrowFP16Go(dst, src)
}

func (k *vecKernels) widenFP16(dst []float32, src []byte) {
	if k.f16c {
		widenFP16F16C(dst, src)
		return
	}
	widenFP16Go(dst, src)
}

// fp16Short decides the common case of "is this float32 exactly a half?"
// from the bits alone: an exponent inside the fp16 normal range (113..142,
// fp16's 1..30) and the 13 mantissa bits fp16 lacks all zero. Narrowing such
// a value is a shift and a re-bias with nothing to round. Subnormals, Inf,
// NaN and everything inexact or out of range fail the test and go to
// FP16FromF32/FP16ToF32, which stay the definition of representable.
func fp16Short(b uint32) bool { return b&0x1fff == 0 && (b>>23&0xff)-113 < 30 }

// narrowFP16Go classifies and narrows in one pass and gives up at the first
// element that is not representable.
func narrowFP16Go(dst []byte, src []float32) bool {
	dst = dst[:2*len(src)]
	for i, f := range src {
		b := math.Float32bits(f)
		var h uint16
		if fp16Short(b) {
			h = uint16(b>>16&0x8000) | uint16((b&0x7fffffff)>>13-112<<10)
		} else if b<<1 == 0 {
			h = uint16(b >> 16) // ±0, too common on real features to send to the oracle
		} else if h = FP16FromF32(f); math.Float32bits(FP16ToF32(h)) != b {
			return false
		}
		binary.LittleEndian.PutUint16(dst[2*i:], h)
	}
	return true
}

func widenFP16Go(dst []float32, src []byte) {
	src = src[:2*len(dst)]
	for j := range dst {
		h := uint32(binary.LittleEndian.Uint16(src[2*j:]))
		if e := h & 0x7c00; e != 0 && e != 0x7c00 {
			// A normal half widens by a shift and a re-bias.
			dst[j] = math.Float32frombits((h&0x8000)<<16 | ((h&0x7fff)<<13 + 112<<23))
		} else {
			dst[j] = FP16ToF32(uint16(h))
		}
	}
}

// FP16ToF32 widens an IEEE 754 binary16 value. Every one of the 65536 half
// patterns maps to a distinct, exactly-representable float32 — including
// subnormals, infinities, and NaNs (payload preserved in the top mantissa
// bits, a signalling NaN left signalling) — so FP16FromF32 inverts it bit
// for bit (pinned by an exhaustive test).
func FP16ToF32(h uint16) float32 {
	sign := uint32(h>>15) << 31
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal: normalize into the f32 exponent range.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | man<<13) // ±Inf / NaN
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// FP16FromF32 narrows a float32 to binary16 with round-to-nearest-even.
// Overflow rounds to the like-signed infinity; NaN payloads keep their top
// 10 mantissa bits (quieted only if that truncation would read as infinity).
func FP16FromF32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	e := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	if b>>23&0xff == 0xff {
		if man == 0 {
			return sign | 0x7c00 // ±Inf
		}
		m := uint16(man >> 13)
		if m == 0 {
			m = 0x200 // payload vanished; force a quiet NaN
		}
		return sign | 0x7c00 | m
	}
	if e >= 0x1f {
		return sign | 0x7c00 // overflow → ±Inf
	}
	if e <= 0 {
		if e < -10 {
			return sign // underflows past the smallest subnormal → ±0
		}
		// Subnormal result: shift the 24-bit significand down, RNE.
		man |= 0x800000
		shift := uint32(14 - e)
		m := man >> shift
		rem := man & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && m&1 == 1) {
			m++
		}
		return sign | uint16(m) // m may carry into the exponent; that is correct
	}
	m := man >> 13
	rem := man & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
		m++
	}
	return sign | (uint16(e)<<10 + uint16(m)) // mantissa carry rolls the exponent
}
