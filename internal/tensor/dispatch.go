// GEMM kernel dispatch (DESIGN.md §14): the micro-kernel is selected once
// at startup by a capability probe. Every registered kernel is
// bitwise-equivalent on finite inputs (same per-element reduction order,
// no FMA contraction), so the choice is purely a throughput decision —
// training results do not depend on which host ran where.
//
// Selection order: architecture-specific SIMD paths registered by the
// build-tagged probe (AVX-512F > AVX2 on amd64), then the one portable
// register-tiled Go kernel (8×4). Tests cross-check every registered kernel
// against the reference loops (export_test.go).
package tensor

// gemmKernels is the preference-ordered kernel registry: asm kernels are
// prepended by the per-architecture registerAsmKernels, the portable Go
// kernel is always present and always last.
var gemmKernels []*microKernel

// curKernel is the dispatched kernel. It is set once during init; the hot
// path (kernelFor) reads it without synchronization.
var curKernel *microKernel

func init() {
	registerAsmKernels()
	gemmKernels = append(gemmKernels, &microKernel{name: "go8x4", mr: 8, nr: 4, kern: microGo8x4})
	curKernel = gemmKernels[0]
}

// GemmKernelName reports the dispatched micro-kernel.
func GemmKernelName() string { return curKernel.name }
