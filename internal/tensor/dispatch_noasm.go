//go:build !amd64 || purego

package tensor

// registerAsmKernels is a no-op on architectures without an assembly
// micro-kernel (or with the purego build tag): dispatch falls through to
// the portable register-tiled Go kernels, which compute bit-for-bit the
// same results.
func registerAsmKernels() {}

// The fp16 pair has no vector body here and vecKernels.f16c is never set;
// these exist so the dispatch compiles, and are the loops.
func narrowFP16F16C(dst []byte, src []float32) bool { return narrowFP16Go(dst, src) }

func widenFP16F16C(dst []float32, src []byte) { widenFP16Go(dst, src) }
