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
