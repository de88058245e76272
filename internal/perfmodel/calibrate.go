package perfmodel

// Kernel-calibrated compute profiles. The paper-machine profiles in
// perfmodel.go describe V100 workers; when the model costs a run of THIS
// repo's own trainer (the event simulator replaying a local configuration,
// capacity planning for the TCP harness), the per-sample compute time must
// come from the machine actually executing the kernels. This file derives
// it the same way the paper profiles are derived — flop count divided by
// achieved throughput — but measures the throughput live on the dispatched
// GEMM kernel (internal/tensor, DESIGN.md §14) instead of reading it off a
// datasheet.

import (
	"time"

	"plshuffle/internal/nn"
	"plshuffle/internal/tensor"
)

// MeasuredGFLOPS times forward-shaped matmuls (batch×in · in×out) for each
// consecutive layer pair of dims on the dispatched GEMM kernel and returns
// the achieved throughput in GFLOP/s. Measuring at the training shapes —
// not a square peak-throughput shape — keeps the calibration honest for
// skinny batch panels, which run well below large-GEMM rates. reps is
// raised as needed so the timed region is long enough to trust.
func MeasuredGFLOPS(batch int, dims []int, reps int) float64 {
	if batch <= 0 || len(dims) < 2 {
		return 0
	}
	if reps < 1 {
		reps = 1
	}
	type layer struct{ x, w, y *tensor.Matrix }
	layers := make([]layer, 0, len(dims)-1)
	var flopsPerRep float64
	for i := 0; i+1 < len(dims); i++ {
		in, out := dims[i], dims[i+1]
		l := layer{x: tensor.New(batch, in), w: tensor.New(in, out), y: tensor.New(batch, out)}
		for j := range l.x.Data {
			l.x.Data[j] = float32(j%13) * 0.1
		}
		for j := range l.w.Data {
			l.w.Data[j] = float32(j%7) * 0.05
		}
		layers = append(layers, l)
		flopsPerRep += 2 * float64(batch) * float64(in) * float64(out)
	}
	run := func(n int) time.Duration {
		t0 := time.Now()
		for r := 0; r < n; r++ {
			for _, l := range layers {
				tensor.MatMulInto(l.y, l.x, l.w)
			}
		}
		return time.Since(t0)
	}
	run(1) // warm the packed-workspace pool
	el := run(reps)
	// Stretch short measurements: below ~20ms the timer noise and one-off
	// effects dominate.
	for el < 20*time.Millisecond && reps < 1<<20 {
		reps *= 4
		el = run(reps)
	}
	sec := el.Seconds()
	if sec <= 0 {
		return 0
	}
	return flopsPerRep * float64(reps) / sec / 1e9
}

// mlpDims flattens a ModelSpec into its Linear-layer dimension chain.
func mlpDims(spec nn.ModelSpec) []int {
	dims := make([]int, 0, len(spec.Hidden)+2)
	dims = append(dims, spec.InputDim)
	dims = append(dims, spec.Hidden...)
	return append(dims, spec.Classes)
}

// MLPFlopsPerSample returns the forward+backward matmul flop count per
// sample of the MLP proxy: 2·in·out forward per Linear, plus 2·in·out each
// for the weight-gradient (xᵀ·dy) and input-gradient (dy·Wᵀ) matmuls — 6×
// the forward count, except for the first Linear, whose input gradient
// nothing reads and nn.Sequential does not compute (4×). Normalization,
// activations, and bias adds are O(dim) per layer and omitted; the matmuls
// dominate.
func MLPFlopsPerSample(spec nn.ModelSpec) float64 {
	dims := mlpDims(spec)
	f := -2 * float64(dims[0]) * float64(dims[1])
	for i := 0; i+1 < len(dims); i++ {
		f += 6 * float64(dims[i]) * float64(dims[i+1])
	}
	return f
}

// MLPParamBytes returns the float32 parameter volume of the MLP proxy
// (weights, biases, and the per-feature scale/shift of a normalization
// layer when the spec uses one) — the gradient-allreduce payload.
func MLPParamBytes(spec nn.ModelSpec) int64 {
	dims := mlpDims(spec)
	var n int64
	for i := 0; i+1 < len(dims); i++ {
		n += int64(dims[i])*int64(dims[i+1]) + int64(dims[i+1])
	}
	if spec.BatchNorm || spec.Norm == nn.NormBatch || spec.Norm == nn.NormGroup {
		for _, h := range spec.Hidden {
			n += 2 * int64(h)
		}
	}
	return 4 * n
}

// CalibratedProfile builds a ModelProfile for spec on the machine running
// this process: per-sample compute is the proxy's flop count divided by
// the throughput the dispatched GEMM kernel actually achieves at the
// training batch shape. This replaces any hard-coded seconds-per-sample
// guess for local runs — when the kernels get faster, the model follows.
func CalibratedProfile(spec nn.ModelSpec, batch int) (ModelProfile, error) {
	if err := spec.Validate(); err != nil {
		return ModelProfile{}, err
	}
	if batch <= 0 {
		batch = 16
	}
	gf := MeasuredGFLOPS(batch, mlpDims(spec), 8)
	if gf <= 0 {
		return ModelProfile{}, errNoThroughput
	}
	return ModelProfile{
		Name:             spec.Name + "-calibrated",
		ParamBytes:       MLPParamBytes(spec),
		ComputePerSample: MLPFlopsPerSample(spec) / (gf * 1e9),
	}, nil
}
