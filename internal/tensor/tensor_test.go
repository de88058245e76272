package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"plshuffle/internal/rng"
)

func almostEq(a, b float32, tol float64) bool {
	return math.Abs(float64(a)-float64(b)) <= tol
}

// naiveMul is the reference O(n^3) triple loop used to validate the
// optimized kernels.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func randomMatrix(r *rng.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat32()
	}
	return m
}

func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func matricesClose(t *testing.T, got, want *Matrix, tol float64, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], tol) {
			t.Fatalf("%s: element %d: got %v want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 16, 16}, {33, 17, 9}, {128, 64, 32}}
	for _, s := range shapes {
		a := randomMatrix(r, s[0], s[1])
		b := randomMatrix(r, s[1], s[2])
		matricesClose(t, MatMul(a, b), naiveMul(a, b), 1e-3, "MatMul")
	}
}

func TestMatMulTAMatchesTransposeMul(t *testing.T) {
	r := rng.New(2)
	for _, s := range [][3]int{{4, 3, 5}, {17, 9, 13}, {64, 32, 8}} {
		a := randomMatrix(r, s[0], s[1]) // k×n
		b := randomMatrix(r, s[0], s[2]) // k×m
		matricesClose(t, MatMulTA(a, b), naiveMul(transpose(a), b), 1e-3, "MatMulTA")
	}
}

func TestMatMulTBMatchesMulTranspose(t *testing.T) {
	r := rng.New(3)
	for _, s := range [][3]int{{4, 3, 5}, {17, 9, 13}, {8, 64, 32}} {
		a := randomMatrix(r, s[0], s[1]) // n×k
		b := randomMatrix(r, s[2], s[1]) // m×k
		matricesClose(t, MatMulTB(a, b), naiveMul(a, transpose(b)), 1e-3, "MatMulTB")
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%10 + 1
		r := rng.New(seed)
		a := randomMatrix(r, n, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		out := MatMul(a, id)
		for i := range out.Data {
			if !almostEq(out.Data[i], a.Data[i], 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulIntoReusesBuffer(t *testing.T) {
	r := rng.New(4)
	a := randomMatrix(r, 5, 6)
	b := randomMatrix(r, 6, 7)
	dst := New(5, 7)
	for i := range dst.Data {
		dst.Data[i] = 999 // stale garbage must be overwritten
	}
	MatMulInto(dst, a, b)
	matricesClose(t, dst, naiveMul(a, b), 1e-3, "MatMulInto")
}

func TestMatMulPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestAddRowVecAndColSum(t *testing.T) {
	a := New(3, 2)
	a.AddRowVec([]float32{1, 2})
	cs := a.ColSum()
	if cs[0] != 3 || cs[1] != 6 {
		t.Fatalf("ColSum after AddRowVec: %v", cs)
	}
	cm := a.ColMean()
	if cm[0] != 1 || cm[1] != 2 {
		t.Fatalf("ColMean: %v", cm)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice(3, 3, []float32{
		0, 5, 1,
		9, 2, 3,
		-1, -5, -2,
	})
	got := a.ArgmaxRows()
	want := []int{1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgmaxRows = %v, want %v", got, want)
		}
	}
}

func TestNorm2(t *testing.T) {
	if n := Norm2Slice([]float32{3, 4}); math.Abs(n-5) > 1e-9 {
		t.Fatalf("Norm2Slice = %v, want 5", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestKaimingInitVariance(t *testing.T) {
	r := rng.New(10)
	fanIn := 256
	m := New(200, fanIn)
	m.KaimingInit(r, fanIn)
	var sum, sumsq float64
	for _, v := range m.Data {
		sum += float64(v)
		sumsq += float64(v) * float64(v)
	}
	n := float64(len(m.Data))
	mean := sum / n
	variance := sumsq/n - mean*mean
	want := 2.0 / float64(fanIn)
	if math.Abs(variance-want)/want > 0.1 {
		t.Fatalf("Kaiming variance = %v, want ~%v", variance, want)
	}
}

func TestRowIsView(t *testing.T) {
	m := New(2, 3)
	m.Row(1)[2] = 7
	if m.At(1, 2) != 7 {
		t.Fatal("Row did not return a view")
	}
}

func BenchmarkMatMul128(b *testing.B) { benchMatMul(b, 128) }
func BenchmarkMatMul512(b *testing.B) { benchMatMul(b, 512) }

func benchMatMul(b *testing.B, n int) {
	r := rng.New(1)
	a := randomMatrix(r, n, n)
	c := randomMatrix(r, n, n)
	dst := New(n, n)
	b.SetBytes(int64(2 * n * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
	reportGFLOPS(b, 2*n*n*n)
}

// reportGFLOPS attaches achieved floating-point throughput to a matmul
// benchmark (flops = flop count of ONE op), per op like every other
// reported metric.
func reportGFLOPS(b *testing.B, flops int) {
	sec := b.Elapsed().Seconds()
	if sec <= 0 {
		return
	}
	b.ReportMetric(float64(flops)*float64(b.N)/sec/1e9, "gflops/op")
}

// BenchmarkMatMulTA256/TB256 cover the two transposed backward-pass
// kernels at a training-typical panel shape.
func BenchmarkMatMulTA256(b *testing.B) {
	r := rng.New(2)
	a := randomMatrix(r, 256, 256)
	c := randomMatrix(r, 256, 256)
	dst := New(256, 256)
	b.SetBytes(int64(2 * 256 * 256 * 256 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTAInto(dst, a, c)
	}
	reportGFLOPS(b, 2*256*256*256)
}

func BenchmarkMatMulTB256(b *testing.B) {
	r := rng.New(3)
	a := randomMatrix(r, 256, 256)
	c := randomMatrix(r, 256, 256)
	dst := New(256, 256)
	b.SetBytes(int64(2 * 256 * 256 * 256 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTBInto(dst, a, c)
	}
	reportGFLOPS(b, 2*256*256*256)
}

// firstLayerShapes are the b×in×out shapes the benchmark workloads' thin
// layers run (storage, exchange_*, gradsync and compute, in that order):
// the shapes that take the in-place arms of gemmRows (DESIGN.md §14), plus
// one that packs.
var firstLayerShapes = [][3]int{{256, 4096, 8}, {128, 2048, 8}, {8, 512, 512}, {512, 64, 512}}

// firstLayerGEMMNames name a Linear layer's three GEMMs, in the order
// firstLayerGEMMs returns them.
var firstLayerGEMMNames = []string{"forward", "GW", "dx"}

// firstLayerGEMMs returns the three GEMMs of a Linear layer of shape s
// (b×in×out) over operands of its own drawn from seed.
func firstLayerGEMMs(s [3]int, seed uint64) []func() {
	bs, in, out := s[0], s[1], s[2]
	r := rng.New(seed)
	x, w, dy := randomMatrix(r, bs, in), randomMatrix(r, in, out), randomMatrix(r, bs, out)
	y, gw, dx := New(bs, out), New(in, out), New(bs, in)
	return []func(){
		func() { MatMulInto(y, x, w) },
		func() { MatMulTAInto(gw, x, dy) },
		func() { MatMulTBInto(dx, dy, w) },
	}
}

// BenchmarkFirstLayer times the three GEMMs of a Linear layer at each of
// firstLayerShapes, alone.
func BenchmarkFirstLayer(b *testing.B) {
	for _, s := range firstLayerShapes {
		for g, fn := range firstLayerGEMMs(s, 4) {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s[0], s[1], s[2], firstLayerGEMMNames[g]), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
				reportGFLOPS(b, 2*s[0]*s[1]*s[2])
			})
		}
	}
}

// BenchmarkFirstLayerContended is BenchmarkFirstLayer as the benchmark
// worlds run it: 2·GOMAXPROCS goroutines, each with operands of its own,
// run the same GEMM at once — at -cpu 2, four ranks on two cores. A GEMM
// that only keeps its lines in cache while it has the core to itself is
// fast alone and slow here. ns/op is wall time per GEMM, all goroutines
// counted; gflops/op is their sum.
func BenchmarkFirstLayerContended(b *testing.B) {
	for _, s := range firstLayerShapes {
		for g, name := range firstLayerGEMMNames {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s[0], s[1], s[2], name), func(b *testing.B) {
				const parallelism = 2
				fns := make(chan func(), parallelism*runtime.GOMAXPROCS(0))
				for i := range cap(fns) {
					fns <- firstLayerGEMMs(s, uint64(4+i))[g]
				}
				b.SetParallelism(parallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					fn := <-fns
					for pb.Next() {
						fn()
					}
				})
				reportGFLOPS(b, 2*s[0]*s[1]*s[2])
			})
		}
	}
}

// BenchmarkStepKernels times the element-wise kernels (DESIGN.md §14.6) at
// the sizes the gradsync workload runs them: the optimizer step over the
// whole model (569 872 parameters), the all-reduce's add and scale over one
// ring chunk (a quarter of it, four ranks), ReLU over a 512×512
// activation and BatchNorm's four sweeps over one 512-feature row of it;
// the fp16 narrow and widen over 128 of the lean exchange's 2048-feature
// samples, all fp16-representable (a grid of halves, as exchange_lean's
// data is). Each kernel runs with the dispatched body and with the Go loop,
// and reports the bytes it loads and stores per second.
func BenchmarkStepKernels(b *testing.B) {
	const params, chunk, act, feats = 569_872, 569_872 / 4, 512 * 512, 2048 * 128
	r := rng.New(8)
	floats := func(n int) []float32 { return randomMatrix(r, 1, n).Data }
	w, g, v := floats(params), floats(params), floats(params)
	dst, src := floats(chunk), floats(chunk)
	x, out, dy, dx := floats(act), floats(act), floats(act), floats(act)
	const dim = 512
	var f [6][]float32 // per-feature vectors
	for i := range f {
		f[i] = floats(dim)
	}
	grid, halves, wide := floats(feats), make([]byte, 2*feats), make([]float32, feats)
	for i, v := range grid {
		grid[i] = float32(math.Round(float64(v)*8) / 2)
	}
	if !NarrowFP16Exact(halves, grid) {
		b.Fatal("benchmark samples are not fp16-representable")
	}
	for _, body := range []struct {
		name string
		k    vecKernels
	}{{"vector", vec}, {"go", goVec}} {
		k := body.k
		for _, c := range []struct {
			name  string
			bytes int // loaded + stored per call
			fn    func()
		}{
			{"sgdStep", 5 * 4 * params, func() { k.sgdStep(w, g, v, 1e-3, 0.9, 5e-4) }},
			{"add", 3 * 4 * chunk, func() { k.add(dst, src) }},
			{"scale", 2 * 4 * chunk, func() { k.scale(dst, 0.999) }},
			{"relu", 2 * 4 * act, func() { k.relu(out, x) }},
			{"reluGrad", 3 * 4 * act, func() { k.reluGrad(dx, dy, out) }},
			{"bnStats", 5 * 4 * dim, func() { k.bnStats(f[0], f[1], x[:dim]) }},
			{"bnNorm", 7 * 4 * dim, func() { k.bnNorm(out[:dim], dx[:dim], x[:dim], f[0], f[1], f[2], f[3]) }},
			{"bnGrads", 6 * 4 * dim, func() { k.bnGrads(f[0], f[1], dy[:dim], x[:dim]) }},
			{"bnDX", 6 * 4 * dim, func() { k.bnDX(dx[:dim], dy[:dim], x[:dim], f[2], f[4], f[5], 512) }},
			{"narrowFP16", 6 * feats, func() { k.narrowFP16(halves, grid) }},
			{"widenFP16", 6 * feats, func() { k.widenFP16(wide, halves) }},
		} {
			b.Run(c.name+"/"+body.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.fn()
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(c.bytes)*float64(b.N)/sec/1e9, "GB/s")
				}
			})
		}
	}
}
