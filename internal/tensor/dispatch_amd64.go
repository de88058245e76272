//go:build amd64 && !purego

package tensor

// Capability probe and assembly micro-kernel registration for amd64.
//
// The SIMD kernels vectorize across the NR (column) dimension only: each
// output element still accumulates its k-products in ascending order with
// a separate VMULPS and VADDPS per step (never FMA, which would contract
// the rounding), so they are bitwise-identical to the scalar reference on
// finite inputs. AVX2 and AVX-512F are gated on CPUID feature bits plus
// XGETBV confirming the OS saves the wider register state; an amd64 host
// with neither falls through to the portable Go kernel.

// cpuidAsm executes CPUID for (leaf, sub). Implemented in gemm_amd64.s.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0. Only valid when CPUID reports OSXSAVE.
func xgetbvAsm() (eax, edx uint32)

// The micro-kernels. c points at an MR×NR tile with row stride ldc
// floats; each accumulates kc k-steps into the tile in place (onto its
// contents with acc, onto +0 without), reading A and B through the strides
// microKernel documents.
//
//go:noescape
func microAVX28x8Asm(kc int, a *float32, ars, aks int, b *float32, brs int, c *float32, ldc int, acc bool)

//go:noescape
func microAVX5128x16Asm(kc int, a *float32, ars, aks int, b *float32, brs int, c *float32, ldc int, acc bool)

// The AVX2 bodies of the element-wise kernels (vec.go), in vec_amd64.s.
//
//go:noescape
func sgdStepAVX2(w, grad, v []float32, lr, mom, wd float32)

//go:noescape
func addAVX2(dst, src []float32)

//go:noescape
func scaleAVX2(s []float32, f float32)

//go:noescape
func reluAVX2(dst, x []float32)

//go:noescape
func reluGradAVX2(dx, dy, out []float32)

//go:noescape
func bnStatsAVX2(sum, sumsq, x []float32)

//go:noescape
func bnNormAVX2(xhat, out, x, mean, invStd, gamma, beta []float32)

//go:noescape
func bnGradsAVX2(sumDy, sumDyXhat, dy, xhat []float32)

//go:noescape
func bnDXAVX2(dx, dy, xhat, coef, sumDy, sumDyXhat []float32, n float32)

// The F16C block converters: each converts whole blocks of 8 until one it
// cannot vouch for, and returns the number of elements done.
//
//go:noescape
func narrowBlocksF16C(dst []byte, src []float32) int

//go:noescape
func widenBlocksF16C(dst []float32, src []byte) int

// narrowFP16F16C runs the vector blocks and gives each block they stop at,
// and the ragged tail, to the loop, which decides it.
func narrowFP16F16C(dst []byte, src []float32) bool {
	for {
		n := narrowBlocksF16C(dst, src)
		dst, src = dst[2*n:], src[n:]
		m := min(8, len(src))
		if !narrowFP16Go(dst[:2*m], src[:m]) {
			return false
		}
		if m < 8 {
			return true
		}
		dst, src = dst[2*m:], src[m:]
	}
}

// widenFP16F16C is narrowFP16F16C's shape for the widen.
func widenFP16F16C(dst []float32, src []byte) {
	for {
		n := widenBlocksF16C(dst, src)
		dst, src = dst[n:], src[2*n:]
		m := min(8, len(dst))
		widenFP16Go(dst[:m], src[:2*m])
		if m < 8 {
			return
		}
		dst, src = dst[m:], src[2*m:]
	}
}

type asmKernel func(kc int, a *float32, ars, aks int, b *float32, brs int, c *float32, ldc int, acc bool)

func wrapAsm(f asmKernel) func(int, []float32, int, int, []float32, int, []float32, int, bool) {
	return func(kc int, a []float32, ars, aks int, b []float32, brs int, c []float32, ldc int, acc bool) {
		f(kc, &a[0], ars, aks, &b[0], brs, &c[0], ldc, acc)
	}
}

// registerAsmKernels probes the CPU and prepends every usable assembly
// micro-kernel in preference order (widest vectors first). The
// element-wise kernels have one assembly body, AVX2: past L2 they are bound
// by memory, not by vector width. The fp16 pair needs F16C as well.
func registerAsmKernels() {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	var hasAVX2, hasAVX512, hasF16C bool
	if maxLeaf >= 7 {
		_, _, c1, _ := cpuidAsm(1, 0)
		const osxsave, avx, f16c = 1 << 27, 1 << 28, 1 << 29
		if c1&osxsave != 0 && c1&avx != 0 {
			xlo, _ := xgetbvAsm()
			osYMM := xlo&0x6 == 0x6   // XMM+YMM state saved
			osZMM := xlo&0xe6 == 0xe6 // + opmask and ZMM state
			b7, _, _, _ := cpuid7()
			hasAVX2 = osYMM && b7&(1<<5) != 0
			hasAVX512 = osZMM && b7&(1<<16) != 0
			hasF16C = osYMM && c1&f16c != 0
		}
	}
	var avx2 *microKernel
	if hasAVX2 {
		avx2 = &microKernel{name: "avx2_8x8", mr: 8, nr: 8, kern: wrapAsm(microAVX28x8Asm)}
	}
	if hasAVX512 {
		gemmKernels = append(gemmKernels,
			&microKernel{name: "avx512_8x16", mr: 8, nr: 16, kern: wrapAsm(microAVX5128x16Asm), narrow: avx2})
	}
	if hasAVX2 {
		gemmKernels = append(gemmKernels, avx2)
		vec = vecKernels{
			sgdStep:  sgdStepAVX2,
			add:      addAVX2,
			scale:    scaleAVX2,
			relu:     reluAVX2,
			reluGrad: reluGradAVX2,
			bnStats:  bnStatsAVX2,
			bnNorm:   bnNormAVX2,
			bnGrads:  bnGradsAVX2,
			bnDX:     bnDXAVX2,
			f16c:     hasF16C,
		}
	}
}

func cpuid7() (ebx, ecx, edx, eax uint32) {
	a, b, c, d := cpuidAsm(7, 0)
	return b, c, d, a
}
