package tensor

import "fmt"

// Kernel selection for tests: every registered kernel is bitwise-equivalent,
// so production code never chooses one by name; gemm_test.go forces each in
// turn to cross-check it against the reference loops.

// GemmKernels lists every kernel available on this host, in dispatch
// preference order.
func GemmKernels() []string {
	out := make([]string, len(gemmKernels))
	for i, k := range gemmKernels {
		out[i] = k.name
	}
	return out
}

// SetGemmKernel selects the named micro-kernel and returns the previous
// selection. All kernels are bitwise-equivalent; this exists for tests and
// benchmarks. Not safe to call concurrently with running matmuls.
func SetGemmKernel(name string) (prev string, err error) {
	prev = curKernel.name
	for _, k := range gemmKernels {
		if k.name == name {
			curKernel = k
			return prev, nil
		}
	}
	return prev, fmt.Errorf("tensor: unknown GEMM kernel %q (have %v)", name, GemmKernels())
}

// The allocating forms of the kernels, kept for the tests that read better
// with a returned matrix; production code calls the *Into forms.

// MatMul returns A·B as a new (a.Rows × b.Cols) matrix.
func MatMul(a, b *Matrix) *Matrix {
	checkMul(a, b, "MatMul", a.Cols, b.Rows)
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulTA returns Aᵀ·B (a is k×n, b is k×m, result n×m). This is the
// weight-gradient kernel: dW = Xᵀ·dY.
func MatMulTA(a, b *Matrix) *Matrix {
	checkMul(a, b, "MatMulTA", a.Rows, b.Rows)
	out := New(a.Cols, b.Cols)
	MatMulTAInto(out, a, b)
	return out
}

// MatMulTB returns A·Bᵀ (a is n×k, b is m×k, result n×m). This is the
// input-gradient kernel: dX = dY·Wᵀ.
func MatMulTB(a, b *Matrix) *Matrix {
	checkMul(a, b, "MatMulTB", a.Cols, b.Cols)
	out := New(a.Rows, b.Rows)
	MatMulTBInto(out, a, b)
	return out
}

// ColMean returns per-column means (len = Cols).
func (m *Matrix) ColMean() []float32 {
	out := m.ColSum()
	inv := 1 / float32(m.Rows)
	for j := range out {
		out[j] *= inv
	}
	return out
}
