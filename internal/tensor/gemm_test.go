package tensor

// Bitwise-equivalence suite for the packed GEMM core (DESIGN.md §14).
//
// Everything downstream of these kernels — the PR-3 determinism gates, the
// corgi2/PLS weight-CRC acceptance runs — assumes MatMul* results are a
// pure function of the operands, independent of micro-kernel, tile
// constants, and worker count. So these tests compare against the retained
// reference kernels with math.Float32bits equality, never a tolerance.

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"plshuffle/internal/rng"
)

// fillMixed fills m with normal variates plus injected exact +0 and -0.
// The pre-blocking kernels special-cased zeros and the padding argument in
// DESIGN.md §14 leans on signed-zero arithmetic, so equivalence tests must
// exercise both zeros explicitly.
func fillMixed(r *rng.Rand, m *Matrix) {
	for i := range m.Data {
		switch r.Intn(12) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = float32(math.Copysign(0, -1))
		default:
			m.Data[i] = r.NormFloat32()
		}
	}
}

func matricesBitwise(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if i := firstMismatch(got, want); i >= 0 {
		t.Fatalf("%s: element %d: got %v (%#08x) want %v (%#08x)",
			label, i, got.Data[i], math.Float32bits(got.Data[i]),
			want.Data[i], math.Float32bits(want.Data[i]))
	}
}

// firstMismatch is the index of the first element of got whose bits differ
// from want's, or -1.
func firstMismatch(got, want *Matrix) int {
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return i
		}
	}
	return -1
}

// The gemmForced* helpers drive the packed core directly with the same
// effective-operand strides as the public entry points, bypassing the
// gemmMinWork cutoff so small shapes also exercise packing/ragged edges.
func gemmForced(dst, a, b *Matrix) {
	gemm(dst,
		gemmOperand{data: a.Data, rowStride: a.Cols, depthStride: 1},
		gemmOperand{data: b.Data, rowStride: 1, depthStride: b.Cols},
		a.Rows, b.Cols, a.Cols)
}

func gemmForcedTA(dst, a, b *Matrix) {
	gemm(dst,
		gemmOperand{data: a.Data, rowStride: 1, depthStride: a.Cols},
		gemmOperand{data: b.Data, rowStride: 1, depthStride: b.Cols},
		a.Cols, b.Cols, a.Rows)
}

func gemmForcedTB(dst, a, b *Matrix) { gemmTB(dst, a, b) }

// forEachKernel runs f once per registered micro-kernel (SIMD and Go), so
// every host cross-checks every kernel it can execute, not just the
// dispatched one.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, name := range GemmKernels() {
		t.Run(name, func(t *testing.T) {
			prev, err := SetGemmKernel(name)
			if err != nil {
				t.Fatal(err)
			}
			defer SetGemmKernel(prev)
			f(t)
		})
	}
}

// guardedMatrix is New(r, c) with the data ending at a guard page: the
// in-place arms hand the kernels the operand itself, so a driver that lets
// a tile run one element past it faults here.
func guardedMatrix(t testing.TB, r, c int) *Matrix {
	return &Matrix{Rows: r, Cols: c, Data: guardedFloats(t, r*c)}
}

// shapeMismatch runs all three matmul variants on one (n, k, m) through
// the driver and names the first that differs from its reference loop in
// any bit ("" when none does).
func shapeMismatch(t testing.TB, r *rng.Rand, n, k, m int) string {
	a := guardedMatrix(t, n, k)
	b := guardedMatrix(t, k, m)
	fillMixed(r, a)
	fillMixed(r, b)
	got, want := guardedMatrix(t, n, m), New(n, m)
	gemmForced(got, a, b)
	matMulRef(want, a, b, 0, n)
	if firstMismatch(got, want) >= 0 {
		return "gemm"
	}

	at := guardedMatrix(t, k, n) // effective A is atᵀ
	fillMixed(r, at)
	gemmForcedTA(got, at, b)
	matMulTARef(want, at, b, 0, n)
	if firstMismatch(got, want) >= 0 {
		return "gemmTA"
	}

	return tbMismatch(t, r, n, k, m)
}

// tbMismatch is shapeMismatch for A·Bᵀ alone: through gemmTB, and through
// the public entry point, whose cutoff decides between the reference loop
// and gemmTB's two arms.
func tbMismatch(t testing.TB, r *rng.Rand, n, k, m int) string {
	a := guardedMatrix(t, n, k)
	bt := guardedMatrix(t, m, k) // effective B is btᵀ
	fillMixed(r, a)
	fillMixed(r, bt)
	got, want := guardedMatrix(t, n, m), New(n, m)
	matMulTBRef(want, a, bt, 0, n)
	gemmForcedTB(got, a, bt)
	if firstMismatch(got, want) >= 0 {
		return "gemmTB"
	}
	got.Zero()
	MatMulTBInto(got, a, bt)
	if firstMismatch(got, want) >= 0 {
		return "MatMulTBInto"
	}
	return ""
}

// checkShape verifies all three matmul variants bitwise on one (n, k, m).
func checkShape(t *testing.T, r *rng.Rand, n, k, m int) {
	t.Helper()
	if v := shapeMismatch(t, r, n, k, m); v != "" {
		t.Fatalf("%s %dx%dx%d (%s): differs from the reference loop", v, n, k, m, GemmKernelName())
	}
}

// TestGemmBitwiseExhaustiveSmall sweeps every shape with n, k, m in
// [1, 9]: all the ragged-edge permutations of every MR×NR tile fit in this
// range, for every registered kernel.
func TestGemmBitwiseExhaustiveSmall(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(42)
		for n := 1; n <= 9; n++ {
			for k := 1; k <= 9; k++ {
				for m := 1; m <= 9; m++ {
					checkShape(t, r, n, k, m)
				}
			}
		}
	})
}

// TestGemmBitwiseRagged covers shapes that straddle the blocking
// constants: multiple KC panels (k > 256), multiple MC row blocks
// (n > 128), multiple NC column blocks (m > 512), and ragged remainders
// against every tile width. The second group sits on either side of the
// in-place rule, all above gemmMinWork: one column strip (A in place) at
// every kernel's NR and NR±1, one row strip (B in place) at MR and MR±1,
// each with whole and ragged tails in the other dimension. The sweep after
// them is A·Bᵀ around its own rule (gemmTB): 1 to 9 rows of A — 9 stays on
// the packed path — against whole, ragged and multi-block row counts of B,
// with k on both sides of KC.
func TestGemmBitwiseRagged(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 300, 1}, {8, 256, 16}, {7, 13, 9},
		{31, 63, 15}, {70, 130, 90}, {64, 256, 48}, {16, 1, 16},
		{129, 257, 17}, {130, 300, 70}, {3, 511, 600}, {140, 270, 530},

		{256, 600, 8}, {131, 600, 8}, {128, 300, 7}, {133, 300, 9},
		{64, 520, 16}, {61, 520, 15}, {67, 520, 17}, {40, 300, 4},
		{43, 300, 3}, {45, 300, 5}, {300, 70, 12},
		{8, 300, 64}, {8, 300, 70}, {7, 300, 64}, {5, 300, 530},
		{9, 300, 64}, {1, 520, 48}, {8, 700, 16}, {5, 700, 8},
	}
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(7)
		for _, s := range shapes {
			checkShape(t, r, s[0], s[1], s[2])
		}
		for n := 1; n <= 9; n++ {
			ms := []int{7, 64, 131}
			if n >= 8 {
				ms = append(ms, 530) // past NC, on either side of the rule
			}
			for _, m := range ms {
				for _, k := range []int{255, 300} {
					if v := tbMismatch(t, r, n, k, m); v != "" {
						t.Fatalf("%s %dx%dx%d (%s): differs from the reference loop", v, n, k, m, GemmKernelName())
					}
				}
			}
		}
	})
}

// TestGemmBitwiseProperty is the property-based sweep from the issue:
// random ragged shapes from 1×1×1 up to 70×130×90, and thin ones — at most
// one column strip wide or one row strip tall, deep enough to sit above
// gemmMinWork — so the in-place arms draw as often as the packed ones;
// every variant, every registered kernel, bitwise against the reference.
func TestGemmBitwiseProperty(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		check := func(seed uint64, nRaw, kRaw, mRaw, thin uint8) bool {
			n := int(nRaw)%70 + 1
			k := int(kRaw)%130 + 1
			m := int(mRaw)%90 + 1
			switch thin % 3 {
			case 1: // (m, k, n ≤ NR+1)
				n, k, m = int(nRaw)+1, 2*int(kRaw)+130, int(mRaw)%17+1
			case 2: // (m ≤ MR+1, k, n)
				n, k, m = int(nRaw)%9+1, 2*int(kRaw)+130, int(mRaw)+1
			}
			return shapeMismatch(t, rng.New(seed), n, k, m) == ""
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGemmParallelBitwiseIdentical pins the row-split independence claim:
// with GOMAXPROCS raised so parallelTiles actually forks, the result is
// bit-for-bit the serial result.
func TestGemmParallelBitwiseIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	r := rng.New(99)
	n, k, m := 300, 200, 180 // 3 MC tiles, work far above minParallelWork
	a := New(n, k)
	b := New(k, m)
	fillMixed(r, a)
	fillMixed(r, b)

	par := New(n, m)
	MatMulInto(par, a, b)

	runtime.GOMAXPROCS(1)
	ser := New(n, m)
	MatMulInto(ser, a, b)
	runtime.GOMAXPROCS(4)

	matricesBitwise(t, par, ser, "parallel vs serial")

	ref := New(n, m)
	matMulRef(ref, a, b, 0, n)
	matricesBitwise(t, par, ref, "parallel vs reference")
}

// TestPublicEntryPointsBitwise drives the public Into entry points (cutoff
// logic included) across the gemmMinWork boundary.
func TestPublicEntryPointsBitwise(t *testing.T) {
	r := rng.New(5)
	for _, s := range [][3]int{{4, 4, 4}, {12, 12, 12}, {40, 33, 29}, {96, 200, 64}} {
		n, k, m := s[0], s[1], s[2]
		a := New(n, k)
		b := New(k, m)
		at := New(k, n)
		bt := New(m, k)
		fillMixed(r, a)
		fillMixed(r, b)
		fillMixed(r, at)
		fillMixed(r, bt)
		got, want := New(n, m), New(n, m)

		MatMulInto(got, a, b)
		matMulRef(want, a, b, 0, n)
		matricesBitwise(t, got, want, "MatMulInto")

		MatMulTAInto(got, at, b)
		matMulTARef(want, at, b, 0, n)
		matricesBitwise(t, got, want, "MatMulTAInto")

		MatMulTBInto(got, a, bt)
		matMulTBRef(want, a, bt, 0, n)
		matricesBitwise(t, got, want, "MatMulTBInto")
	}
}

func TestSetGemmKernelUnknown(t *testing.T) {
	if _, err := SetGemmKernel("definitely-not-a-kernel"); err == nil {
		t.Fatal("SetGemmKernel accepted an unknown name")
	}
	if GemmKernelName() == "" {
		t.Fatal("dispatch left no active kernel")
	}
}

// collectRanges runs a parallel splitter and records every (lo, hi) chunk
// it hands out.
func collectRanges(split func(fn func(lo, hi int))) [][2]int {
	var mu sync.Mutex
	var got [][2]int
	split(func(lo, hi int) {
		mu.Lock()
		got = append(got, [2]int{lo, hi})
		mu.Unlock()
	})
	return got
}

// rangesPartition checks the chunks exactly tile [0, n) with no overlap
// and no empty chunk.
func rangesPartition(t *testing.T, got [][2]int, n int, label string) {
	t.Helper()
	covered := make([]int, n)
	for _, r := range got {
		if r[0] >= r[1] {
			t.Fatalf("%s: empty or inverted chunk %v", label, r)
		}
		for i := r[0]; i < r[1]; i++ {
			if i < 0 || i >= n {
				t.Fatalf("%s: chunk %v outside [0, %d)", label, r, n)
			}
			covered[i]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("%s: index %d covered %d times", label, i, c)
		}
	}
}

// TestParallelTilesDegenerate is the regression test for the tiles<=0 and
// tiles<workers cases: no tiles must not call fn at all (never an empty or
// negative range), and tiny tile counts must still partition exactly.
func TestParallelTilesDegenerate(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	for _, tiles := range []int{0, -1} {
		got := collectRanges(func(fn func(lo, hi int)) { parallelTiles(tiles, 1<<20, fn) })
		if len(got) != 0 {
			t.Fatalf("parallelTiles(%d) called fn with %v", tiles, got)
		}
	}
	for _, tiles := range []int{1, 2, 3, 5, 7, 8, 9, 17, 63} {
		got := collectRanges(func(fn func(lo, hi int)) { parallelTiles(tiles, 1<<20, fn) })
		rangesPartition(t, got, tiles, "parallelTiles")
	}
}

// TestColSumIntoParallelBitwise checks the cache-line-chunked parallel
// column sums against the serial path (and a plain ascending-row loop) on
// widths that are not multiples of the chunk unit.
func TestColSumIntoParallelBitwise(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	r := rng.New(17)
	for _, shape := range [][2]int{{1024, 100}, {700, 33}, {2048, 16}, {5, 3}, {601, 131}} {
		m := New(shape[0], shape[1])
		fillMixed(r, m)

		par := make([]float32, m.Cols)
		m.ColSumInto(par)

		ser := make([]float32, m.Cols)
		m.colSumRange(ser, 0, m.Cols)

		naive := make([]float32, m.Cols)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				naive[j] += m.At(i, j)
			}
		}
		for j := range par {
			if math.Float32bits(par[j]) != math.Float32bits(ser[j]) {
				t.Fatalf("ColSumInto %v: col %d parallel %v != serial %v", shape, j, par[j], ser[j])
			}
			if math.Float32bits(par[j]) != math.Float32bits(naive[j]) {
				t.Fatalf("ColSumInto %v: col %d %v != naive %v", shape, j, par[j], naive[j])
			}
		}
	}
}

// TestMatMulPackedZeroAllocs pins the arena-backed GEMM core at zero
// steady-state allocations (the whole point of pooling gemmWS): one warmup
// to grow the arena, then nothing — whether both operands pack (96×200×64),
// A is read in place (96×200×8) or B is (8×200×64, 5×300×67 — the shapes
// whose A·Bᵀ takes gemmTB's transposed arm, whole and ragged).
func TestMatMulPackedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is meaningless under -race")
	}
	prev := runtime.GOMAXPROCS(1) // the parallel fork allocates by design
	defer runtime.GOMAXPROCS(prev)

	r := rng.New(3)
	for _, s := range [][3]int{{96, 200, 64}, {96, 200, 8}, {8, 200, 64}, {5, 300, 67}} {
		n, k, m := s[0], s[1], s[2]
		a := randomMatrix(r, n, k)
		b := randomMatrix(r, k, m)
		bt := randomMatrix(r, m, k)
		at := randomMatrix(r, k, n)
		dst := New(n, m)

		MatMulInto(dst, a, b) // warmup: grows the pooled arena once
		if allocs := testing.AllocsPerRun(20, func() { MatMulInto(dst, a, b) }); allocs != 0 {
			t.Fatalf("MatMulInto %v allocs/op = %v, want 0", s, allocs)
		}
		MatMulTAInto(dst, at, b)
		if allocs := testing.AllocsPerRun(20, func() { MatMulTAInto(dst, at, b) }); allocs != 0 {
			t.Fatalf("MatMulTAInto %v allocs/op = %v, want 0", s, allocs)
		}
		MatMulTBInto(dst, a, bt)
		if allocs := testing.AllocsPerRun(20, func() { MatMulTBInto(dst, a, bt) }); allocs != 0 {
			t.Fatalf("MatMulTBInto %v allocs/op = %v, want 0", s, allocs)
		}
	}
}

// microRef is the scalar semantics of one micro-kernel call: for k
// ascending, each C element adds fl(a·b) — exactly the contract every
// registered kernel must meet bit for bit, whatever the operand strides.
func microRef(kc, mr, nr int, a []float32, ars, aks int, b []float32, brs int, c []float32, ldc int) {
	for k := 0; k < kc; k++ {
		for r := 0; r < mr; r++ {
			av := a[r*ars+k*aks]
			for j := 0; j < nr; j++ {
				c[r*ldc+j] += av * b[k*brs+j]
			}
		}
	}
}

// checkMicroKernel runs mk once over operands laid out by the given
// strides and filled from val, against microRef, in accumulate mode (acc)
// or overwrite mode. In overwrite mode C holds NaN on entry, so a kernel
// that loads it anyway shows; the reference then sums onto +0. Every
// operand — the C tile included — ends exactly where its slice does, in
// front of a guard page, so a kernel that touches one element too many
// faults.
func checkMicroKernel(t testing.TB, mk *microKernel, kc, ars, aks, brs int, acc bool, val func(i int) float32) {
	t.Helper()
	a := guardedFloats(t, (mk.mr-1)*ars+(kc-1)*aks+1)
	b := guardedFloats(t, (kc-1)*brs+mk.nr)
	ldc := mk.nr + 3 // non-trivial row stride
	got := guardedFloats(t, (mk.mr-1)*ldc+mk.nr)
	want := make([]float32, len(got))
	i := 0
	for _, s := range [][]float32{a, b, got} {
		for j := range s {
			s[j] = val(i)
			i++
		}
	}
	copy(want, got)
	if !acc {
		nan := float32(math.NaN())
		for r := 0; r < mk.mr; r++ {
			for j := 0; j < mk.nr; j++ {
				got[r*ldc+j], want[r*ldc+j] = nan, 0
			}
		}
	}
	mk.kern(kc, a, ars, aks, b, brs, got, ldc, acc)
	microRef(kc, mk.mr, mk.nr, a, ars, aks, b, brs, want, ldc)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s kc=%d strides a=(%d,%d) b=%d acc=%v: element %d: got %v (%#08x) want %v (%#08x)",
				mk.name, kc, ars, aks, brs, acc, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestMicroKernelsMatchScalar drives every registered kernel's inner
// function directly, no driver in between, in both modes over each operand
// layout gemmRows hands it: the packed triple, A in place row-major
// (MatMul, MatMulTB) and column-major (MatMulTA), B in place, and both.
func TestMicroKernelsMatchScalar(t *testing.T) {
	r := rng.New(23)
	val := func(int) float32 { return r.NormFloat32() }
	for _, mk := range gemmKernels {
		for _, kc := range []int{1, 2, 3, 17, 64, 256} {
			for _, l := range [][3]int{
				{1, mk.mr, mk.nr},      // packed A, packed B
				{kc + 3, 1, mk.nr},     // A rows in place
				{1, mk.mr + 5, mk.nr},  // A columns in place
				{1, mk.mr, mk.nr + 7},  // B in place
				{kc, 1, mk.nr},         // A rows in place, no gap between rows
				{kc + 3, 1, mk.nr + 7}, // both in place
			} {
				for _, acc := range []bool{true, false} {
					checkMicroKernel(t, mk, kc, l[0], l[1], l[2], acc, val)
				}
			}
		}
	}
}

// TestGemmOverwritesStaleDst pins that the packed core writes every element
// of dst and reads none: dst starts as NaN, so an element left unwritten,
// or a first panel that loads C instead of starting from +0, shows. Every
// shape is above gemmMinWork, so the public entry points take the packed
// path: one column strip wide (A in place) at each kernel's NR±1, one row
// strip tall (B in place; A·Bᵀ's transposed arm) at MR±1, and both packed,
// each at k = 1, on either side of the short panel and of KC, and past two
// KC panels.
func TestGemmOverwritesStaleDst(t *testing.T) {
	ks := []int{1, gemmKCStrided - 1, gemmKCStrided, gemmKCStrided + 1, gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 1}
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(31)
		var shapes [][3]int
		for _, k := range ks {
			// rows, cols such that 2·rows·k·cols clears gemmMinWork with the
			// thin side fixed; +3 keeps the long side ragged.
			long := func(thin int) int { return gemmMinWork/(2*k*thin) + 3 }
			for _, nr := range []int{4, 8, 16} {
				for _, n := range []int{nr - 1, nr, nr + 1} {
					shapes = append(shapes, [3]int{max(long(n), 2*gemmMC+5), k, n})
				}
			}
			for _, m := range []int{curKernel.mr - 1, curKernel.mr, curKernel.mr + 1} {
				shapes = append(shapes, [3]int{m, k, max(long(m), 70)})
			}
			shapes = append(shapes, [3]int{long(37) + 29, k, 37})
		}
		for _, s := range shapes {
			n, k, m := s[0], s[1], s[2]
			if 2*n*k*m < gemmMinWork {
				t.Fatalf("%v is below gemmMinWork: it would take the reference loop", s)
			}
			a, at, b, bt := New(n, k), New(k, n), New(k, m), New(m, k)
			for _, x := range []*Matrix{a, at, b, bt} {
				fillMixed(r, x)
			}
			got, want := New(n, m), New(n, m)
			for _, v := range []struct {
				name string
				run  func(dst *Matrix)
				ref  func(dst *Matrix)
			}{
				{"MatMulInto", func(d *Matrix) { MatMulInto(d, a, b) }, func(d *Matrix) { matMulRef(d, a, b, 0, n) }},
				{"MatMulTAInto", func(d *Matrix) { MatMulTAInto(d, at, b) }, func(d *Matrix) { matMulTARef(d, at, b, 0, n) }},
				{"MatMulTBInto", func(d *Matrix) { MatMulTBInto(d, a, bt) }, func(d *Matrix) { matMulTBRef(d, a, bt, 0, n) }},
			} {
				for i := range got.Data {
					got.Data[i] = float32(math.NaN())
				}
				v.run(got)
				v.ref(want)
				if i := firstMismatch(got, want); i >= 0 {
					t.Fatalf("%s %dx%dx%d: element %d: got %v want %v", v.name, n, k, m, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}
