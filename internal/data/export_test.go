package data

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
