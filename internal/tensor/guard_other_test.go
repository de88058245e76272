//go:build !unix

package tensor

import "testing"

// guardedFloats has no guard page to offer here; the slice's exact length
// still bounds-checks the portable kernel.
func guardedFloats(t testing.TB, n int) []float32 { return make([]float32, n) }
