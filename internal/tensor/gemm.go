// Blocked, register-tiled GEMM core (DESIGN.md §14).
//
// All three matmul entry points (MatMulInto, MatMulTAInto, MatMulTBInto)
// route through one driver, gemmRows, and an MR×NR register-tiled
// micro-kernel that reads its operands through strides. Blocking constants
// follow the classic three-level scheme:
//
//	NC — columns of B per outermost block (B panel KC×NC lives in L2/L3)
//	KC — depth of one panel pair (A strip MR×KC + B strip NR×KC stream
//	     through L1)
//	MC — rows of A per block (A panel MC×KC lives in L2)
//
// Packing is an optimisation, not a precondition: an operand that would be
// swept once is read in place, everything else is copied into contiguous
// cache-tile buffers, ragged edges zero-padded (the rule is at gemmRows).
//
// dst is never cleared first: the first k-panel runs the kernels in
// overwrite mode, whose accumulators start at +0 in registers and never
// load C; later panels accumulate onto what the earlier ones stored.
//
// Determinism contract: every kernel — the scalar reference, the pure-Go
// tiled kernel, and the SIMD paths — accumulates each output element
// C[i,j] as fl(c + fl(a[i,k]*b[k,j])) for k strictly ascending, one
// rounding per multiply and one per add (no FMA contraction). Blocking
// over i/j never reorders a single element's reduction, and blocking over
// k only inserts exact store/load round-trips at panel boundaries (and the
// first panel's register +0 is the value a zeroed C would load), so the
// result is bitwise-identical to the naive triple loop for all finite
// inputs, independent of tile constants, kernel choice, worker count,
// whether an operand was packed or read in place, or how rows are split
// across ranks. Zero-padding the ragged pack edges is equally exact: a
// partial sum starting from +0 can never reach -0 under round-to-nearest,
// so adding the padded ±0 products changes nothing. The equivalence is
// pinned by exhaustive small-shape tests, property tests over ragged
// shapes, and a micro-kernel fuzz target.
package tensor

import (
	"sync"

	"plshuffle/internal/tensor/arena"
)

// Blocking constants. Sized for a ~32 KiB L1d / ~1 MiB L2 x86 core: the
// packed B strip (KC·NR floats, ≤16 KiB at NR=16) plus one A strip
// (KC·MR floats, 8 KiB) stream through L1, the packed A block (MC·KC
// floats, 128 KiB) stays L2-resident across the whole jr loop.
//
// gemmKCStrided is the panel depth when an operand read in place has a
// depth stride other than 1 (Xᵀ in MatMulTA, B in every product one row
// strip tall): each of its k-steps is a different memory row, and KC of
// them is more streams than the L2 prefetcher tracks — the lines are gone
// before the adjacent strip comes back for them. 16–64 measure alike.
const (
	gemmNC        = 512
	gemmKC        = 256
	gemmKCStrided = 32
	gemmMC        = 128
)

// microKernel is one register-tiled inner kernel: it computes an MR×NR
// C tile (row stride ldc floats) over kc k-steps, k ascending, mul and add
// rounded separately.
//
// Element (r, k) of the A strip is a[r*ars + k*aks] and element (k, j) of
// the B strip is b[k*brs + j]: a packed strip is (ars, aks) = (1, MR) or
// brs = NR, an operand read in place passes its own strides. The kernel
// reads exactly MR×kc and kc×NR elements, never past them. With acc, c
// holds the running partial sums on entry and the kernel adds to them;
// without it (the first k-panel) the sums start at +0 and c is only
// written, whatever it held.
type microKernel struct {
	name   string
	mr, nr int
	kern   func(kc int, a []float32, ars, aks int, b []float32, brs int, c []float32, ldc int, acc bool)
	// narrow is the registered kernel of the same family with the next
	// smaller NR, if any: a column strip that fits it runs there directly
	// instead of through this kernel's zero-padded scratch tile.
	narrow *microKernel
}

// microGo8x4 is the portable 8×4 register-tiled micro-kernel: 32 scalar
// accumulators, manually unrolled. It is the default on architectures
// without an assembly path and the universal fallback everywhere.
func microGo8x4(kc int, a []float32, ars, aks int, b []float32, brs int, c []float32, ldc int, acc bool) {
	r0 := c[0*ldc : 0*ldc+4 : 0*ldc+4]
	r1 := c[1*ldc : 1*ldc+4 : 1*ldc+4]
	r2 := c[2*ldc : 2*ldc+4 : 2*ldc+4]
	r3 := c[3*ldc : 3*ldc+4 : 3*ldc+4]
	r4 := c[4*ldc : 4*ldc+4 : 4*ldc+4]
	r5 := c[5*ldc : 5*ldc+4 : 5*ldc+4]
	r6 := c[6*ldc : 6*ldc+4 : 6*ldc+4]
	r7 := c[7*ldc : 7*ldc+4 : 7*ldc+4]
	var c00, c01, c02, c03, c10, c11, c12, c13 float32
	var c20, c21, c22, c23, c30, c31, c32, c33 float32
	var c40, c41, c42, c43, c50, c51, c52, c53 float32
	var c60, c61, c62, c63, c70, c71, c72, c73 float32
	if acc {
		c00, c01, c02, c03 = r0[0], r0[1], r0[2], r0[3]
		c10, c11, c12, c13 = r1[0], r1[1], r1[2], r1[3]
		c20, c21, c22, c23 = r2[0], r2[1], r2[2], r2[3]
		c30, c31, c32, c33 = r3[0], r3[1], r3[2], r3[3]
		c40, c41, c42, c43 = r4[0], r4[1], r4[2], r4[3]
		c50, c51, c52, c53 = r5[0], r5[1], r5[2], r5[3]
		c60, c61, c62, c63 = r6[0], r6[1], r6[2], r6[3]
		c70, c71, c72, c73 = r7[0], r7[1], r7[2], r7[3]
	}
	ao, bo := 0, 0
	for k := 0; k < kc; k++ {
		bk := b[bo : bo+4 : bo+4]
		b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
		a0 := a[ao]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		a1 := a[ao+ars]
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2 := a[ao+2*ars]
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		a3 := a[ao+3*ars]
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a4 := a[ao+4*ars]
		c40 += a4 * b0
		c41 += a4 * b1
		c42 += a4 * b2
		c43 += a4 * b3
		a5 := a[ao+5*ars]
		c50 += a5 * b0
		c51 += a5 * b1
		c52 += a5 * b2
		c53 += a5 * b3
		a6 := a[ao+6*ars]
		c60 += a6 * b0
		c61 += a6 * b1
		c62 += a6 * b2
		c63 += a6 * b3
		a7 := a[ao+7*ars]
		c70 += a7 * b0
		c71 += a7 * b1
		c72 += a7 * b2
		c73 += a7 * b3
		ao += aks
		bo += brs
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
	r4[0], r4[1], r4[2], r4[3] = c40, c41, c42, c43
	r5[0], r5[1], r5[2], r5[3] = c50, c51, c52, c53
	r6[0], r6[1], r6[2], r6[3] = c60, c61, c62, c63
	r7[0], r7[1], r7[2], r7[3] = c70, c71, c72, c73
}

// gemmOperand is one effective input matrix of the packed core, expressed
// through strides so the transposed variants share the packing code:
// element (i, k) of effective A is data[i*rowStride + k*depthStride], and
// element (k, j) of effective B is data[k*depthStride + j*rowStride].
type gemmOperand struct {
	data        []float32
	rowStride   int // stride along the output dimension (i for A, j for B)
	depthStride int // stride along the reduction dimension k
}

// gemmWS is one goroutine's workspace for a packed matmul: a bump arena
// that owns the pack buffers and the ragged-edge C scratch tile. Instances
// are pooled; steady state re-bumps the same backing array, so the packed
// path allocates nothing after warmup.
type gemmWS struct {
	a *arena.Arena
}

var gemmPool = sync.Pool{New: func() any { return &gemmWS{a: arena.New(0)} }}

// packA copies rows [i0,i1) × depth [k0,k1) of effective A into dst as
// ceil((i1-i0)/mr) strips: strip s holds, for each k ascending, the mr
// values of rows i0+s*mr .. i0+s*mr+mr-1 (zero-padded past i1).
func packA(dst []float32, a gemmOperand, i0, i1, k0, k1, mr int) {
	kc := k1 - k0
	p := 0
	for is := i0; is < i1; is += mr {
		full := is+mr <= i1
		if full && a.depthStride == 1 {
			// Contiguous k (MatMul/MatMulTB): copy mr k-runs row by row,
			// interleaving into the strip layout.
			base := is * a.rowStride
			for r := 0; r < mr; r++ {
				src := a.data[base+r*a.rowStride+k0 : base+r*a.rowStride+k1]
				q := p + r
				for _, v := range src {
					dst[q] = v
					q += mr
				}
			}
			p += kc * mr
			continue
		}
		if full && a.rowStride == 1 {
			// Contiguous rows at each depth (MatMulTA): copy mr-wide runs.
			for k := k0; k < k1; k++ {
				copy(dst[p:p+mr], a.data[k*a.depthStride+is:])
				p += mr
			}
			continue
		}
		for k := k0; k < k1; k++ {
			col := a.data[k*a.depthStride:]
			for r := 0; r < mr; r++ {
				i := is + r
				if i < i1 {
					dst[p] = col[i*a.rowStride]
				} else {
					dst[p] = 0
				}
				p++
			}
		}
	}
}

// packB copies depth [k0,k1) × columns [j0,j1) of effective B into dst as
// ceil((j1-j0)/nr) strips: strip s holds, for each k ascending, the nr
// values of columns j0+s*nr .. j0+s*nr+nr-1 (zero-padded past j1).
func packB(dst []float32, b gemmOperand, k0, k1, j0, j1, nr int) {
	p := 0
	for js := j0; js < j1; js += nr {
		full := js+nr <= j1
		if full && b.rowStride == 1 {
			// Contiguous columns (MatMul/MatMulTA): copy nr-wide row chunks.
			for k := k0; k < k1; k++ {
				copy(dst[p:p+nr], b.data[k*b.depthStride+js:])
				p += nr
			}
			continue
		}
		for k := k0; k < k1; k++ {
			row := b.data[k*b.depthStride:]
			for c := 0; c < nr; c++ {
				j := js + c
				if j < j1 {
					dst[p] = row[j*b.rowStride]
				} else {
					dst[p] = 0
				}
				p++
			}
		}
	}
}

// kernelFor returns the micro-kernel for an n-column product: the
// dispatched one, or its narrower sibling when the whole product fits that
// kernel's strip (n = 8 on an AVX-512 host runs the 8-wide AVX2 kernel on
// full tiles instead of the 16-wide one on half-empty scratch).
func kernelFor(n int) *microKernel {
	mk := curKernel
	if mk.narrow != nil && n <= mk.narrow.nr {
		return mk.narrow
	}
	return mk
}

// gemmRows computes rows [lo,hi) of dst = effA · effB with the micro-kernel
// kernelFor(n) picks. dst rows are fully overwritten; what they held is
// never read.
//
// One rule decides, per operand, between reading it in place and packing
// it: a packed panel earns its copy by being swept once per strip of the
// other operand, so with a single such strip there is nothing to earn. A
// is read in place when n fits one column strip (the kernel broadcasts A
// element by element, so any stride pair is addressable); B when the rows
// fit one row strip and B's rows are contiguous (the kernel loads NR
// adjacent floats). Only whole strips can be read in place — a ragged tail
// strip would run off the operand — so the tail, and every operand the
// rule does not cover, is packed and zero-padded. An operand read in place
// with a depth stride other than 1 walks panels of gemmKCStrided k-steps
// instead of gemmKC, so a kernel call touches that many rows of it.
func gemmRows(dst *Matrix, a, b gemmOperand, n, k, lo, hi int) {
	ws := gemmPool.Get().(*gemmWS)
	ws.a.Reset()
	gemmRowsIn(ws.a, dst, a, b, n, k, lo, hi)
	gemmPool.Put(ws)
}

// gemmRowsIn is gemmRows with its pack buffers and scratch tile bumped
// from ar, after whatever the caller already holds there.
func gemmRowsIn(ar *arena.Arena, dst *Matrix, a, b gemmOperand, n, k, lo, hi int) {
	mk := kernelFor(n)
	ldc := dst.Cols
	if n == 0 || hi <= lo {
		return
	}
	if k == 0 {
		// No panel runs, so nothing overwrites: the empty sum is +0, as in
		// the reference triple loop.
		clear(dst.Data[lo*ldc : hi*ldc])
		return
	}

	mr, nr := mk.mr, mk.nr
	aInPlace := n <= nr
	bInPlace := hi-lo <= mr && b.rowStride == 1
	kcMax := gemmKC
	if (aInPlace && a.depthStride != 1) || (bInPlace && b.depthStride != 1) {
		kcMax = gemmKCStrided
	}
	ap := ar.Floats(((gemmMC + mr - 1) / mr * mr) * gemmKC)
	bp := ar.Floats(((gemmNC + nr - 1) / nr * nr) * gemmKC)
	ct := ar.Floats(mr * nr)

	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		// Columns [jc, jp) and rows [ic, ip) are the whole strips an
		// in-place operand serves itself; only [jp, jc+nc) and [ip, ic+mc)
		// pack. A packed strip keeps its usual offset in bp/ap.
		jp := jc
		if bInPlace {
			jp += nc / nr * nr
		}
		for kp := 0; kp < k; kp += kcMax {
			kc := min(kcMax, k-kp)
			acc := kp > 0 // the first panel overwrites C
			packB(bp[(jp-jc)*kc:], b, kp, kp+kc, jp, jc+nc, nr)
			for ic := lo; ic < hi; ic += gemmMC {
				mc := min(gemmMC, hi-ic)
				ip := ic
				if aInPlace {
					ip += mc / mr * mr
				}
				packA(ap[(ip-ic)*kc:], a, ip, ic+mc, kp, kp+kc, mr)
				for jr := 0; jr < nc; jr += nr {
					jw := min(nr, nc-jr)
					bs, brs := bp[jr*kc:], nr
					if jc+jr < jp {
						bs, brs = b.data[kp*b.depthStride+jc+jr:], b.depthStride
					}
					for ir := 0; ir < mc; ir += mr {
						iw := min(mr, mc-ir)
						as, ars, aks := ap[ir*kc:], 1, mr
						if ic+ir < ip {
							as, ars, aks = a.data[(ic+ir)*a.rowStride+kp*a.depthStride:], a.rowStride, a.depthStride
						}
						if iw == mr && jw == nr {
							cs := dst.Data[(ic+ir)*ldc+jc+jr:]
							mk.kern(kc, as, ars, aks, bs, brs, cs, ldc, acc)
							continue
						}
						// Ragged edge: run the full tile against a scratch
						// MR×NR block, then copy the valid region back. After
						// the first panel the block is cleared and seeded
						// with the live C values; lanes never cross, so the
						// padding lanes, cropped here, affect nothing.
						if acc {
							clear(ct)
							for r := 0; r < iw; r++ {
								copy(ct[r*nr:r*nr+jw], dst.Data[(ic+ir+r)*ldc+jc+jr:])
							}
						}
						mk.kern(kc, as, ars, aks, bs, brs, ct, nr, acc)
						for r := 0; r < iw; r++ {
							copy(dst.Data[(ic+ir+r)*ldc+jc+jr:(ic+ir+r)*ldc+jc+jr+jw], ct[r*nr:])
						}
					}
				}
			}
		}
	}
}

// gemm computes dst = effA (m×k) · effB (k×n), chunking row tiles across
// goroutines when the work amortizes the fan-out (see parallelTiles). Any
// row split yields bitwise-identical results: each output element's
// reduction schedule is a function of (k, KC) only.
func gemm(dst *Matrix, a, b gemmOperand, m, n, k int) {
	tiles := (m + gemmMC - 1) / gemmMC
	// Gate the serial path before the closure below exists: the closure is
	// captured by goroutines in parallelTiles, so constructing it
	// unconditionally would heap-allocate even when we run inline — and the
	// single-worker steady state must be 0 allocs/op.
	if serialTiles(tiles, 2*gemmMC*k*n) {
		gemmRows(dst, a, b, n, k, 0, m)
		return
	}
	parallelTiles(tiles, 2*gemmMC*k*n, func(tlo, thi int) {
		lo := tlo * gemmMC
		hi := thi * gemmMC
		if hi > m {
			hi = m
		}
		gemmRows(dst, a, b, n, k, lo, hi)
	})
}

// gemmTB computes dst = A·Bᵀ through the packed core. Bᵀ's rows are B's
// columns, never contiguous, so gemmRows' in-place rule cannot spare B
// when A is one row strip tall — and that is the shape of every dx at a
// small batch: a few rows of dy against the whole of W. The transposed
// product dstᵀ = B·Aᵀ is the same sums with the roles swapped: it is one
// column strip wide, so B is broadcast from where it lies and only A's few
// rows pack; the narrow result is transposed into dst from scratch. Each
// element is still fl(c + fl(a·b)) over ascending k, and a·b = b·a, so the
// bits are those of the direct product.
func gemmTB(dst, a, b *Matrix) {
	n, k, m := a.Rows, a.Cols, b.Rows
	ea := gemmOperand{data: a.Data, rowStride: a.Cols, depthStride: 1}
	eb := gemmOperand{data: b.Data, rowStride: b.Cols, depthStride: 1}
	if n > curKernel.mr {
		gemm(dst, ea, eb, n, m, k)
		return
	}
	// One workspace, serially: the product is thin, and its result sits in
	// the arena in front of the pack buffers.
	ws := gemmPool.Get().(*gemmWS)
	ws.a.Reset()
	dt := Matrix{Rows: m, Cols: n, Data: ws.a.Floats(m * n)}
	gemmRowsIn(ws.a, &dt, eb, ea, n, k, 0, m)
	for j := 0; j < m; j++ {
		for i, v := range dt.Data[j*n : (j+1)*n] {
			dst.Data[i*m+j] = v
		}
	}
	gemmPool.Put(ws)
}
