package tensor

// Bitwise-equivalence suite for the element-wise kernels (DESIGN.md
// §14.6): whatever body the probe installed in vec is held to the Go loops
// in goVec, element by element, on operands that end where their memory
// does. On a host without AVX2, or under -tags purego, both sides are the
// loops and the suite pins their semantics against the references below.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"plshuffle/internal/rng"
)

// specials are the values an element-wise kernel must not treat like the
// rest: both zeros, both infinities, subnormals, and NaNs quiet and
// signalling, of either sign, with payloads.
var specials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x807fffff, 0x00400000, // subnormals
	0x7fc00000, 0xffc00000, 0x7fc12345, 0x7f800001, 0xffa00000, // NaNs
	0x7f7fffff, 0xff7fffff, 0x00800000, // largest finite, smallest normal
}

// fillSpecial fills s with normal variates, one element in five replaced
// by a special.
func fillSpecial(r *rng.Rand, s []float32) {
	for i := range s {
		if r.Intn(5) == 0 {
			s[i] = math.Float32frombits(specials[r.Intn(len(specials))])
		} else {
			s[i] = r.NormFloat32()
		}
	}
}

const canary = float32(-12345.678)

// operand is one kernel argument laid out for the test: n live elements
// followed by off canaries, the last of them the last four bytes before a
// PROT_NONE page. With off == 0 the operand itself ends at the page, so a
// body that reads one element too many faults; with off > 0 the start
// moves across every alignment and a body that writes too far trips a
// canary.
type operand struct {
	buf []float32
	n   int
}

func newOperand(t testing.TB, n, off int, fill func([]float32)) operand {
	o := operand{buf: guardedFloats(t, n+off), n: n}
	if fill != nil {
		fill(o.buf[:n])
	}
	for i := n; i < len(o.buf); i++ {
		o.buf[i] = canary
	}
	return o
}

func (o operand) live() []float32 { return o.buf[:o.n:o.n] }

func (o operand) clone() []float32 { return append([]float32(nil), o.live()...) }

func (o operand) checkCanaries(t testing.TB, label string) {
	t.Helper()
	for i := o.n; i < len(o.buf); i++ {
		if o.buf[i] != canary {
			t.Fatalf("%s: wrote %d elements past its operand", label, i-o.n+1)
		}
	}
}

// sameBits demands equal bits. sameValue lets two NaNs differ in payload:
// when both inputs of an x86 add or multiply are NaN the result carries the
// first operand's payload, and which operand the compiler puts first in the
// Go loop is its own business — the same "finite inputs" edge the GEMM
// contract has. ReLU moves bits and computes nothing, so it gets sameBits.
func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

func sameValue(a, b float32) bool { return sameBits(a, b) || (a != a && b != b) }

func compare(t testing.TB, label string, got, want []float32, same func(a, b float32) bool) {
	t.Helper()
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: element %d of %d: got %v (%#08x) want %v (%#08x)", label, i, len(want),
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// vecCases drives each kernel of a vecKernels over operands o — every
// argument its own, inputs and accumulators alike filled by the caller.
var vecCases = []struct {
	name     string
	operands int
	same     func(a, b float32) bool
	run      func(k vecKernels, o [][]float32, lr, mom, wd float32)
}{
	{"sgdStep", 3, sameValue, func(k vecKernels, o [][]float32, lr, mom, wd float32) { k.sgdStep(o[0], o[1], o[2], lr, mom, wd) }},
	{"add", 2, sameValue, func(k vecKernels, o [][]float32, _, _, _ float32) { k.add(o[0], o[1]) }},
	{"scale", 1, sameValue, func(k vecKernels, o [][]float32, lr, _, _ float32) { k.scale(o[0], lr) }},
	{"relu", 2, sameBits, func(k vecKernels, o [][]float32, _, _, _ float32) { k.relu(o[0], o[1]) }},
	{"reluGrad", 3, sameBits, func(k vecKernels, o [][]float32, _, _, _ float32) { k.reluGrad(o[0], o[1], o[2]) }},
	{"bnStats", 3, sameValue, func(k vecKernels, o [][]float32, _, _, _ float32) { k.bnStats(o[0], o[1], o[2]) }},
	{"bnNorm", 7, sameValue, func(k vecKernels, o [][]float32, _, _, _ float32) {
		k.bnNorm(o[0], o[1], o[2], o[3], o[4], o[5], o[6])
	}},
	{"bnGrads", 4, sameValue, func(k vecKernels, o [][]float32, _, _, _ float32) { k.bnGrads(o[0], o[1], o[2], o[3]) }},
	{"bnDX", 6, sameValue, func(k vecKernels, o [][]float32, _, mom, _ float32) { k.bnDX(o[0], o[1], o[2], o[3], o[4], o[5], mom) }},
}

// checkVecKernels runs every dispatched kernel once on n elements laid out
// at off (see operand), filled by fill, against the Go loops: every operand
// — the ones a kernel only reads included — must come out as the loop
// leaves it, with its canaries intact.
func checkVecKernels(t testing.TB, n, off int, lr, mom, wd float32, fill func([]float32)) {
	t.Helper()
	for _, c := range vecCases {
		ops := make([]operand, c.operands)
		got, want := make([][]float32, c.operands), make([][]float32, c.operands)
		for i := range ops {
			ops[i] = newOperand(t, n, off, fill)
			got[i], want[i] = ops[i].live(), ops[i].clone()
		}
		c.run(vec, got, lr, mom, wd)
		c.run(goVec, want, lr, mom, wd)
		for i := range ops {
			compare(t, fmt.Sprintf("%s operand %d", c.name, i), got[i], want[i], c.same)
			ops[i].checkCanaries(t, c.name)
		}
	}
}

// reluMaskRef is ReLU as nn.ReLU computed it before the kernels existed:
// forward branches on `v <= 0` and records a mask, backward reads the mask.
func reluMaskRef(x, dy []float32) (out, dx []float32) {
	out, dx = make([]float32, len(x)), make([]float32, len(x))
	mask := make([]bool, len(x))
	for i, v := range x {
		if v <= 0 {
			out[i], mask[i] = 0, false
		} else {
			out[i], mask[i] = v, true
		}
	}
	for i, v := range dy {
		if mask[i] {
			dx[i] = v
		}
	}
	return out, dx
}

// TestVecKernelsMatchGoLoops: every length 0–67 (every vector count from
// none to eight with every ragged tail) at every start offset 0–7, then
// one ring chunk and one model of gradsync's size, both ragged.
func TestVecKernelsMatchGoLoops(t *testing.T) {
	// Operands are tiled from one block of values, each from a different
	// start, so a model-sized operand costs a few copies, not a draw per
	// element.
	block := make([]float32, 4099)
	fillSpecial(rng.New(61), block)
	start := 0
	fill := func(s []float32) {
		start = (start + 997) % len(block)
		for n := copy(s, block[start:]); n < len(s); {
			n += copy(s[n:], block)
		}
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			checkVecKernels(t, n, off, 0.05, 0.9, 5e-4, fill)
		}
	}
	checkVecKernels(t, 141_317, 0, 0.05, 0.9, 5e-4, fill)
	checkVecKernels(t, 565_003, 5, 0.05, 0.9, 5e-4, fill)
	// Scalars that are themselves special.
	for _, s := range []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.NaN())} {
		checkVecKernels(t, 29, 0, s, s, s, fill)
	}
}

// TestReLUSpecialValues pins what ReLU does to the values a comparison can
// get wrong, forward and backward, on the dispatched body and the loop:
// a NaN goes through with its payload and so does its gradient; -0 comes
// out +0 with gradient +0.
func TestReLUSpecialValues(t *testing.T) {
	in := []uint32{0x7fc00001, 0x7f800001, 0xffc00000, 0x80000000, 0x00000000,
		0xbf800000, 0x3f800000, 0x7f800000, 0xff800000, 0x00000001, 0x80000001}
	out := []uint32{0x7fc00001, 0x7f800001, 0xffc00000, 0x00000000, 0x00000000,
		0x00000000, 0x3f800000, 0x7f800000, 0x00000000, 0x00000001, 0x00000000}
	pass := []bool{true, true, true, false, false, false, true, true, false, true, false}
	// Gradients that are special too: a blocked one must come out +0
	// whatever it was.
	dyBits := []uint32{0x40200000, 0x80000000, 0x7fc00055, 0xff800000, 0x7fc00077,
		0x40200000, 0x80000000, 0xffc00001, 0x7f800000, 0x00000001, 0x80000000}
	for name, k := range map[string]vecKernels{GemmKernelName() + " host": vec, "go": goVec} {
		x, dy := guardedFloats(t, len(in)), guardedFloats(t, len(in))
		for i := range in {
			x[i], dy[i] = math.Float32frombits(in[i]), math.Float32frombits(dyBits[i])
		}
		got, dx := guardedFloats(t, len(in)), guardedFloats(t, len(in))
		k.relu(got, x)
		k.reluGrad(dx, dy, got)
		for i := range in {
			if b := math.Float32bits(got[i]); b != out[i] {
				t.Errorf("%s: relu(%#08x) = %#08x, want %#08x", name, in[i], b, out[i])
			}
			want := uint32(0)
			if pass[i] {
				want = dyBits[i]
			}
			if b := math.Float32bits(dx[i]); b != want {
				t.Errorf("%s: reluGrad at input %#08x, dy %#08x = %#08x, want %#08x", name, in[i], dyBits[i], b, want)
			}
		}
	}
}

// TestReLULoopsKeepMaskSemantics holds the Go loops — the definition the
// vector bodies are held to — to the layer as it was: the backward mask
// read back from the forward output is the mask the forward pass used to
// record, on inputs full of specials.
func TestReLULoopsKeepMaskSemantics(t *testing.T) {
	r := rng.New(77)
	x, dy := make([]float32, 4099), make([]float32, 4099)
	fillSpecial(r, x)
	fillSpecial(r, dy)
	out, dx := make([]float32, len(x)), make([]float32, len(x))
	goVec.relu(out, x)
	goVec.reluGrad(dx, dy, out)
	wantOut, wantDx := reluMaskRef(x, dy)
	compare(t, "relu", out, wantOut, sameBits)
	compare(t, "reluGrad", dx, wantDx, sameBits)
}

func TestVecKernelsLengthMismatchPanics(t *testing.T) {
	a, b := make([]float32, 8), make([]float32, 7)
	for name, f := range map[string]func(){
		"SGDMomentumStep": func() { SGDMomentumStep(a, b, a, 1, 1, 1) },
		"AddInto":         func() { AddInto(a, b) },
		"ReLUInto":        func() { ReLUInto(a, b) },
		"ReLUGradInto":    func() { ReLUGradInto(a, a, b) },
		"BNAccumStats":    func() { BNAccumStats(a, b, a) },
		"BNNormalize":     func() { BNNormalize(a, a, a, a, a, a, b) },
		"BNAccumGrads":    func() { BNAccumGrads(a, a, a, b) },
		"BNInputGrad":     func() { BNInputGrad(a, a, a, a, a, b, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted operands of different lengths", name)
				}
			}()
			f()
		}()
	}
}

// FuzzVecKernels feeds the kernels raw bit patterns — every NaN, every
// subnormal is reachable — at a fuzzer-chosen length and offset.
func FuzzVecKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0), float32(0.1), float32(0.9), float32(1e-4))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 1, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xbf}, uint8(3), float32(0.05), float32(0), float32(0))
	seed := make([]byte, 4*45)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(7), float32(-1), float32(math.Inf(1)), float32(math.NaN()))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8, lr, mom, wd float32) {
		n := min(len(raw)/4, 4096)
		next := 0
		fill := func(s []float32) {
			// Each operand starts one element further into raw, so the
			// operands of one kernel differ.
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*((i+next)%n):]))
			}
			next++
		}
		checkVecKernels(t, n, int(off%8), lr, mom, wd, fill)
		checkFP16Kernels(t, n, int(off%8), fill)
		// The same bits read as halves and widened: mostly representable,
		// so the narrow stores too.
		checkFP16Kernels(t, n, int(off%8), func(s []float32) {
			for i := range s {
				s[i] = FP16ToF32(binary.LittleEndian.Uint16(raw[2*i:]))
			}
		})
	})
}

// --- the fp16 pair (narrowFP16, widenFP16) ---

// fp16Specials are the float32 patterns a narrow must not treat like the
// rest. Whether each survives the round trip is the loop's call; the
// hardware agrees on all but the signalling NaNs, which it quiets.
var fp16Specials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc02000, // quiet NaNs a half holds
	0x7fc00001, 0x7fc01000, // quiet NaNs it does not (low mantissa bits)
	0x7fa00000, 0x7f802000, 0xffbfe000, // signalling NaNs a half holds
	0x7f800001, 0x7f801fff, // signalling NaNs it does not
	0x00000001, 0x807fffff, 0x00400000, // f32 subnormals
	0x33800000, 0xb3800000, 0x387fc000, 0x38000000, // fp16 subnormals
	0x38800000, 0x477fe000, 0xc77fe000, // smallest and largest fp16 normals
	0x477ff000, 0x47800000, // 65520 rounds to Inf, 65536 is past it
	0x3dcccccd, 0x33000000, 0x33000001, // 0.1; half the smallest subnormal and just above
}

// halfSpecials are the halves a widen must not treat like the rest: the
// zeros, the infinities, quiet and signalling NaNs, subnormals, the
// largest finite.
var halfSpecials = []uint16{0x0000, 0x8000, 0x7c00, 0xfc00, 0x7e00, 0xfe00, 0x7c01, 0x7dff, 0xfd00, 0x7fff,
	0x0001, 0x83ff, 0x0200, 0x0400, 0x7bff}

// fillHalves fills s with widened halves: every one representable, a NaN or
// an infinity one time in 32 (exponent 31), a subnormal one in 32.
func fillHalves(r *rng.Rand, s []float32) {
	for i := range s {
		s[i] = FP16ToF32(uint16(r.Uint64()))
	}
}

const byteCanary = 0xa5

// newByteOperand is newOperand for bytes: n live bytes, then off canaries
// ending at the guard page.
func newByteOperand(t testing.TB, n, off int) []byte {
	b := guardedBytes(t, n+off)
	for i := n; i < len(b); i++ {
		b[i] = byteCanary
	}
	return b
}

func checkByteCanaries(t testing.TB, b []byte, n int, label string) {
	t.Helper()
	for i := n; i < len(b); i++ {
		if b[i] != byteCanary {
			t.Fatalf("%s: wrote %d bytes past its operand", label, i-n+1)
		}
	}
}

// checkFP16Kernels runs the dispatched narrow and widen once each on n
// elements laid out at off (see operand), against the loops: the narrow's
// verdict and, when it accepts, its halves; the widen's floats bit for bit;
// inputs left alone, canaries intact. The widen reads the narrow's halves
// when there are any and the top half of each input pattern otherwise.
func checkFP16Kernels(t testing.TB, n, off int, fill func([]float32)) {
	t.Helper()
	src := newOperand(t, n, off, fill)
	in := src.clone()
	dst := newByteOperand(t, 2*n, 2*off)
	want := make([]byte, 2*n)
	gotOK, wantOK := vec.narrowFP16(dst[:2*n], src.live()), goVec.narrowFP16(want, in)
	if gotOK != wantOK {
		t.Fatalf("narrowFP16 of %d at offset %d: accepted %v, loop %v", n, off, gotOK, wantOK)
	}
	if gotOK && !bytes.Equal(dst[:2*n], want) {
		t.Fatalf("narrowFP16 of %d at offset %d: halves differ from the loop's", n, off)
	}
	compare(t, "narrowFP16 input", src.live(), in, sameBits)
	src.checkCanaries(t, "narrowFP16 input")
	checkByteCanaries(t, dst, 2*n, "narrowFP16")

	halves := newByteOperand(t, 2*n, 2*off)
	if !wantOK {
		for i, f := range in {
			binary.LittleEndian.PutUint16(want[2*i:], uint16(math.Float32bits(f)>>16))
		}
	}
	copy(halves, want)
	out := newOperand(t, n, off, nil)
	wantOut := make([]float32, n)
	vec.widenFP16(out.live(), halves[:2*n])
	goVec.widenFP16(wantOut, want)
	compare(t, "widenFP16", out.live(), wantOut, sameBits)
	out.checkCanaries(t, "widenFP16")
	if !bytes.Equal(halves[:2*n], want) {
		t.Fatal("widenFP16 wrote its input")
	}
	checkByteCanaries(t, halves, 2*n, "widenFP16 input")
}

// TestFP16KernelsMatchGoLoops: lengths 0–67 at every start offset 0–7, on
// representable samples (the narrow stores, falling back around the blocks
// with exponent-31 values) and on samples seeded with specials (it rolls
// back), then one exchange sample of the benchmark's size.
func TestFP16KernelsMatchGoLoops(t *testing.T) {
	r := rng.New(19)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			checkFP16Kernels(t, n, off, func(s []float32) { fillHalves(r, s) })
			checkFP16Kernels(t, n, off, func(s []float32) { fillSpecial(r, s) })
		}
	}
	checkFP16Kernels(t, 2048, 3, func(s []float32) {
		for i := range s {
			s[i] = FP16ToF32(uint16(r.Uint64()) &^ 0x4000) // no exponent 31
		}
	})
}

// TestFP16KernelsSpecialValues puts each special at every position of a
// 67-element sample of finite halves (eight blocks and a ragged tail). One
// that is not representable sends its block to the loop and the whole
// sample back, wherever it sits; one the hardware would get wrong (a
// signalling NaN) comes out as the loop writes it. The loop's own verdict is
// pinned to the round trip through the scalar conversions.
func TestFP16KernelsSpecialValues(t *testing.T) {
	const n = 67
	r := rng.New(23)
	base := make([]float32, n)
	for i := range base {
		base[i] = FP16ToF32(uint16(r.Uint64()) &^ 0x4000)
	}
	src, dst, want := guardedFloats(t, n), guardedBytes(t, 2*n), make([]byte, 2*n)
	for _, v := range fp16Specials {
		f := math.Float32frombits(v)
		exact := math.Float32bits(FP16ToF32(FP16FromF32(f))) == v
		for i := 0; i < n; i++ {
			copy(src, base)
			src[i] = f
			gotOK, wantOK := vec.narrowFP16(dst, src), goVec.narrowFP16(want, src)
			if wantOK != exact {
				t.Fatalf("loop on %#08x at %d: accepted %v, round trip says %v", v, i, wantOK, exact)
			}
			if gotOK != wantOK || (gotOK && !bytes.Equal(dst, want)) {
				t.Fatalf("narrowFP16 with %#08x at %d: accepted %v (loop %v), halves equal %v",
					v, i, gotOK, wantOK, bytes.Equal(dst, want))
			}
		}
	}
	halves, out, wantOut := guardedBytes(t, 2*n), guardedFloats(t, n), make([]float32, n)
	for i := range base {
		binary.LittleEndian.PutUint16(halves[2*i:], FP16FromF32(base[i]))
	}
	for _, h := range halfSpecials {
		for i := 0; i < n; i++ {
			old := binary.LittleEndian.Uint16(halves[2*i:])
			binary.LittleEndian.PutUint16(halves[2*i:], h)
			vec.widenFP16(out, halves)
			goVec.widenFP16(wantOut, halves)
			compare(t, fmt.Sprintf("widenFP16 with %#04x at %d", h, i), out, wantOut, sameBits)
			if b := math.Float32bits(out[i]); b != math.Float32bits(FP16ToF32(h)) {
				t.Fatalf("widenFP16(%#04x) = %#08x", h, b)
			}
			binary.LittleEndian.PutUint16(halves[2*i:], old)
		}
	}
}

// TestWidenFP16AllHalves widens all 65 536 halves in order — each aligned
// block of 8 is then all exponent-31 (the loop's) or has none (the
// hardware's) — and holds every result to FP16ToF32, bit for bit.
func TestWidenFP16AllHalves(t *testing.T) {
	src := guardedBytes(t, 2<<16)
	for h := range 1 << 16 {
		binary.LittleEndian.PutUint16(src[2*h:], uint16(h))
	}
	for name, k := range map[string]vecKernels{"dispatched": vec, "go": goVec} {
		dst := guardedFloats(t, 1<<16)
		k.widenFP16(dst, src)
		for h, f := range dst {
			if got, want := math.Float32bits(f), math.Float32bits(FP16ToF32(uint16(h))); got != want {
				t.Fatalf("%s: half %#04x widened to %#08x, want %#08x", name, h, got, want)
			}
		}
	}
}

// TestNarrowFP16AllPatterns holds the dispatched narrow to the loop on all
// 2³² float32 patterns. A body accepts a pattern only when widening its
// half gives the pattern back, and a widened half has its low 13 mantissa
// bits clear, so only the 2¹⁹ patterns with those bits clear can be
// accepted: each of them runs alone, in a block of 8 copies, whose fate is
// then its own. Every pattern then runs again in a block of 8 consecutive
// ones, which the vector body hands to the loop.
func TestNarrowFP16AllPatterns(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("4.3 G patterns: not under -short or -race")
	}
	var got, want [16]byte
	check := func(blk []float32) {
		gotOK, wantOK := vec.narrowFP16(got[:], blk), goVec.narrowFP16(want[:], blk)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("narrowFP16 of block from %#08x: accepted %v (loop %v), halves %x (loop %x)",
				math.Float32bits(blk[0]), gotOK, wantOK, got, want)
		}
	}
	var blk [8]float32
	for p := uint32(0); p < 1<<19; p++ {
		for i := range blk {
			blk[i] = math.Float32frombits(p << 13)
		}
		check(blk[:])
	}
	patterns := make([]float32, 1<<16)
	for hi := uint32(0); hi < 1<<16; hi++ {
		for lo := range patterns {
			patterns[lo] = math.Float32frombits(hi<<16 | uint32(lo))
		}
		for b := 0; b < len(patterns); b += 8 {
			check(patterns[b : b+8])
		}
	}
}
