package data

import (
	"math"

	"plshuffle/internal/tensor"
)

// SampleBatchWireSizeEnc returns the exact encoded size of the batch under
// enc, without allocating — SampleBatchWireSize generalized over the wire
// format.
func SampleBatchWireSizeEnc(samples []Sample, enc Encoding) int {
	n := 4
	for _, s := range samples {
		n += s.WireSizeEnc(enc)
	}
	return n
}

// The fp16 conversions are defined in internal/tensor (vec.go); the codec
// tests here hold the v2 format to them under their old names.
var (
	fp16ToF32   = tensor.FP16ToF32
	fp16FromF32 = tensor.FP16FromF32
)

// fp16Representable reports whether f survives an fp16 round trip bit for
// bit, one value at a time through the oracle.
func fp16Representable(f float32) bool {
	return math.Float32bits(fp16ToF32(fp16FromF32(f))) == math.Float32bits(f)
}
