// Package tensor provides the dense float32 matrix kernels underlying the
// neural-network substrate: parallel blocked matrix multiplication (plus the
// transposed variants needed by backpropagation), element-wise operations,
// and reductions.
//
// Matrices are row-major. Kernels parallelize across row blocks with
// goroutines once the work is large enough to amortize the fork/join cost,
// following the fan-out/drain pattern for data-parallel loops.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"plshuffle/internal/rng"
	"plshuffle/internal/tensor/arena"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: New(%d, %d): negative dimension", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float32, r*c)}
}

// FromSlice wraps data (len r*c) as an r×c matrix without copying.
func FromSlice(r, c int, data []float32) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice: len(data)=%d, want %d", len(data), r*c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// EnsureShape returns an r×c matrix, reusing m's backing storage when its
// capacity suffices (m may be nil). The reused path leaves the element
// contents unspecified — callers either overwrite fully (the Into kernels
// do) or call Zero. This is how layers keep per-shape workspaces alive
// across iterations without reallocating, while still following batch-size
// changes (e.g. a smaller final or eval batch).
func EnsureShape(m *Matrix, r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: EnsureShape(%d, %d): negative dimension", r, c))
	}
	if m != nil && cap(m.Data) >= r*c {
		m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
		return m
	}
	return New(r, c)
}

// EnsureShapeArena is EnsureShape with the backing storage bump-allocated
// from a (nil a falls back to EnsureShape). Unlike EnsureShape it always
// re-points m.Data at fresh arena memory: after the arena's per-step
// Reset, the previous region may be handed to any other workspace, so
// reuse-by-capacity would alias. The *Matrix header itself is recycled, so
// the steady state allocates nothing on the heap. Contents are
// unspecified; callers overwrite fully.
func EnsureShapeArena(a *arena.Arena, m *Matrix, r, c int) *Matrix {
	if a == nil {
		return EnsureShape(m, r, c)
	}
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: EnsureShapeArena(%d, %d): negative dimension", r, c))
	}
	if m == nil {
		m = &Matrix{}
	}
	m.Rows, m.Cols = r, c
	m.Data = a.Floats(r * c)
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randn fills the matrix with normal(0, std) values from r.
func (m *Matrix) Randn(r *rng.Rand, std float32) {
	for i := range m.Data {
		m.Data[i] = r.NormFloat32() * std
	}
}

// KaimingInit fills the matrix with the He initialization used for
// ReLU networks: normal(0, sqrt(2/fanIn)).
func (m *Matrix) KaimingInit(r *rng.Rand, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	m.Randn(r, std)
}

// minParallelWork is the flop estimate below which a kernel runs serially:
// goroutine fan-out (and the closure it requires) costs more than the work.
const minParallelWork = 1 << 16

// gemmMinWork is the flop count (2·m·n·k) below which a matmul takes the
// retained reference kernel instead of the packed core: for the small
// per-layer matmuls of the training loop, packing overhead exceeds the
// blocking win. Both paths are bitwise-identical, so the cutover is purely
// a throughput decision.
const gemmMinWork = 1 << 15

// serialTiles reports whether a tile-granular kernel over tiles work units
// of workPerTile estimated flops each should run on the calling goroutine.
// Kernels branch on it before constructing the parallelTiles closure, so the
// serial fast path — every small kernel in the training loop — allocates
// nothing. The packed GEMM forks over whole MC-row tiles, so the fork/join
// decision weighs per-tile work units, not raw rows.
func serialTiles(tiles, workPerTile int) bool {
	return runtime.GOMAXPROCS(0) <= 1 || tiles <= 1 || tiles*workPerTile < minParallelWork
}

// parallelTiles splits [0, tiles) tile indices into contiguous chunks and
// runs fn on each chunk concurrently — the tile-granular fork the packed
// GEMM chunks over (whole MC-row blocks, never raw rows, so no worker ever
// splits a pack unit). Callers gate with serialTiles first to keep the
// serial path closure-free. tiles <= 0 is a no-op (fn is never called with
// an empty range), and the chunk count never exceeds tiles, so every
// invocation of fn covers at least one tile.
func parallelTiles(tiles, workPerTile int, fn func(lo, hi int)) {
	if tiles <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > tiles {
		workers = tiles
	}
	if workers <= 1 || tiles*workPerTile < minParallelWork {
		fn(0, tiles)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * tiles / workers
		hi := (w + 1) * tiles / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func checkMul(a, b *Matrix, inner string, ak, bk int) {
	if ak != bk {
		panic(fmt.Sprintf("tensor: %s: inner dimensions %d and %d differ", inner, ak, bk))
	}
}

// MatMulInto computes dst = A·B. dst must be a.Rows × b.Cols and is
// overwritten. Large shapes route through the packed, register-tiled GEMM
// core (gemm.go); small ones take the retained reference kernel, whose
// inner loop streams both B and dst rows sequentially. The two paths are
// bitwise-identical for finite inputs (see gemm.go's determinism
// contract).
func MatMulInto(dst, a, b *Matrix) {
	checkMul(a, b, "MatMulInto", a.Cols, b.Rows)
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto: dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	if 2*n*k*m >= gemmMinWork {
		gemm(dst,
			gemmOperand{data: a.Data, rowStride: a.Cols, depthStride: 1},
			gemmOperand{data: b.Data, rowStride: 1, depthStride: b.Cols},
			n, m, k)
		return
	}
	matMulRef(dst, a, b, 0, n)
}

// matMulRef is the retained reference kernel (the pre-blocking i-k-j
// triple loop): the semantic ground truth every packed kernel is
// equivalence-tested against, and the fast path for small shapes.
func matMulRef(dst, a, b *Matrix, lo, hi int) {
	k, m := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*m : (i+1)*m]
		for j := range di {
			di[j] = 0
		}
		ai := a.Data[i*k : (i+1)*k]
		for kk := 0; kk < k; kk++ {
			av := ai[kk]
			if av == 0 {
				continue
			}
			bk := b.Data[kk*m : (kk+1)*m]
			for j, bv := range bk {
				di[j] += av * bv
			}
		}
	}
}

// MatMulTAInto computes dst = Aᵀ·B into a caller-owned matrix (dst must be
// a.Cols × b.Cols and is overwritten) — the workspace-reusing form backward
// passes call every iteration without allocating.
func MatMulTAInto(dst, a, b *Matrix) {
	checkMul(a, b, "MatMulTAInto", a.Rows, b.Rows)
	n, k, m := a.Cols, a.Rows, b.Cols
	if dst.Rows != n || dst.Cols != m {
		panic(fmt.Sprintf("tensor: MatMulTAInto: dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, n, m))
	}
	if 2*n*k*m >= gemmMinWork {
		gemm(dst,
			gemmOperand{data: a.Data, rowStride: 1, depthStride: a.Cols},
			gemmOperand{data: b.Data, rowStride: 1, depthStride: b.Cols},
			n, m, k)
		return
	}
	matMulTARef(dst, a, b, 0, n)
}

// matMulTARef is the retained Aᵀ·B reference kernel; each output row i
// gathers contributions a[kk][i] * b[kk][:].
func matMulTARef(dst, a, b *Matrix, lo, hi int) {
	n, k, m := a.Cols, a.Rows, b.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*m : (i+1)*m]
		for j := range di {
			di[j] = 0
		}
	}
	for kk := 0; kk < k; kk++ {
		ak := a.Data[kk*n : (kk+1)*n]
		bk := b.Data[kk*m : (kk+1)*m]
		for i := lo; i < hi; i++ {
			av := ak[i]
			if av == 0 {
				continue
			}
			oi := dst.Data[i*m : (i+1)*m]
			for j, bv := range bk {
				oi[j] += av * bv
			}
		}
	}
}

// MatMulTBInto computes dst = A·Bᵀ into a caller-owned matrix (dst must be
// a.Rows × b.Rows and is overwritten) — the workspace-reusing form of
// MatMulTB.
func MatMulTBInto(dst, a, b *Matrix) {
	checkMul(a, b, "MatMulTBInto", a.Cols, b.Cols)
	n, k, m := a.Rows, a.Cols, b.Rows
	if dst.Rows != n || dst.Cols != m {
		panic(fmt.Sprintf("tensor: MatMulTBInto: dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, n, m))
	}
	if 2*n*k*m >= gemmMinWork {
		gemmTB(dst, a, b)
		return
	}
	matMulTBRef(dst, a, b, 0, n)
}

// matMulTBRef is the retained A·Bᵀ reference kernel.
func matMulTBRef(dst, a, b *Matrix, lo, hi int) {
	k, m := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		oi := dst.Data[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var sum float32
			for kk, av := range ai {
				sum += av * bj[kk]
			}
			oi[j] = sum
		}
	}
}

// AddRowVec adds vector v (len = Cols) to every row; the bias-add kernel.
func (m *Matrix) AddRowVec(v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec: length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// ColSum returns the per-column sums (len = Cols); the bias-gradient kernel.
func (m *Matrix) ColSum() []float32 {
	out := make([]float32, m.Cols)
	m.ColSumInto(out)
	return out
}

// colSumLineFloats is the column-chunk unit of the parallel ColSumInto
// path: one 64-byte cache line of float32 output. Splitting out[] on any
// finer boundary makes adjacent workers ping-pong the shared line
// (false sharing); chunking whole lines keeps every worker's output
// region disjoint at cache granularity.
const colSumLineFloats = 16

// ColSumInto accumulates per-column sums into out (len = Cols), which is
// zeroed first — the workspace-reusing form of ColSum. Wide matrices
// chunk columns across goroutines in whole cache lines of out (see
// colSumLineFloats); each column always accumulates its rows in ascending
// order, so the result is bitwise-identical for every worker count.
func (m *Matrix) ColSumInto(out []float32) {
	if len(out) != m.Cols {
		panic("tensor: ColSumInto: length mismatch")
	}
	lines := (m.Cols + colSumLineFloats - 1) / colSumLineFloats
	if serialTiles(lines, m.Rows*colSumLineFloats) {
		m.colSumRange(out, 0, m.Cols)
		return
	}
	parallelTiles(lines, m.Rows*colSumLineFloats, func(llo, lhi int) {
		lo, hi := llo*colSumLineFloats, lhi*colSumLineFloats
		if hi > m.Cols {
			hi = m.Cols
		}
		m.colSumRange(out, lo, hi)
	})
}

// colSumRange accumulates columns [lo, hi) of the per-column sums, rows
// ascending.
func (m *Matrix) colSumRange(out []float32, lo, hi int) {
	for j := lo; j < hi; j++ {
		out[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols+lo : i*m.Cols+hi]
		for j, v := range row {
			out[lo+j] += v
		}
	}
}

// ArgmaxRows returns, for each row, the column index of the maximum value.
func (m *Matrix) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestJ := row[0], 0
		for j, v := range row {
			if v > best {
				best, bestJ = v, j
			}
		}
		out[i] = bestJ
	}
	return out
}

// Norm2Slice returns the Euclidean norm of a float32 vector.
func Norm2Slice(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}
