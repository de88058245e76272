package nn

// FlattenGrads copies all gradients into dst (allocated if nil) in Params
// order. The order defines the layout of Sequential.Grads, which the trainer
// all-reduces in place; this copy is for callers that want a snapshot.
func FlattenGrads(params []Param, dst []float32) []float32 {
	n := 0
	for _, p := range params {
		n += len(p.G)
	}
	if dst == nil || len(dst) != n {
		dst = make([]float32, n)
	}
	off := 0
	for _, p := range params {
		copy(dst[off:], p.G)
		off += len(p.G)
	}
	return dst
}
