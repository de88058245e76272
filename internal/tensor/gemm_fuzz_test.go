package tensor

// Fuzz target for the micro-kernels: feed raw fuzz bytes in as float32
// operands under fuzzed strides (sanitized to finite values — the bitwise
// contract in DESIGN.md §14 is scoped to finite inputs; NaN payload
// propagation is explicitly outside it), in the accumulate or the
// overwrite mode the input picks, and require every registered kernel to
// match the scalar reduction bit for bit. Run continuously with
//
//	go test ./internal/tensor/ -fuzz FuzzMicroKernels
//
// CI runs a -fuzztime smoke of the same target.

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzFloat decodes 4 bytes into a finite float32, folding NaN/Inf to a
// small deterministic stand-in so the case still exercises the kernel.
func fuzzFloat(b []byte) float32 {
	v := math.Float32frombits(binary.LittleEndian.Uint32(b))
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return float32(len(b)%7) - 3
	}
	return v
}

func FuzzMicroKernels(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), true, []byte{})
	f.Add(uint8(17), uint8(20), uint8(1), uint8(23), true, []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3, 4})
	f.Add(uint8(64), uint8(1), uint8(13), uint8(16), true, []byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0x00, 0x80, 0xff})
	f.Add(uint8(31), uint8(4), uint8(96), uint8(9), false, []byte{0, 0, 0x80, 0x80, 7, 0, 0, 0xc0})
	f.Add(uint8(32), uint8(1), uint8(8), uint8(16), true, []byte{0, 0, 0, 0x80, 0, 0, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, kcRaw, arsRaw, aksRaw, brsRaw uint8, acc bool, raw []byte) {
		kc := int(kcRaw)%96 + 1
		at := func(i int) float32 {
			if len(raw) < 4 {
				return float32(i%5) - 2
			}
			off := (i * 4) % (len(raw) - 3)
			return fuzzFloat(raw[off : off+4])
		}
		// Any non-negative strides are a valid read pattern (elements may
		// even alias); the packed triple is always among the cases.
		ars, aks, brs := int(arsRaw)%100, int(aksRaw)%100, int(brsRaw)%100
		for _, mk := range gemmKernels {
			checkMicroKernel(t, mk, kc, 1, mk.mr, mk.nr, acc, at)
			checkMicroKernel(t, mk, kc, ars, aks, brs, acc, at)
		}
	})
}
