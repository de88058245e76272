package nn

import (
	"testing"

	"plshuffle/internal/rng"
	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
)

// TestTrainingIterationSteadyStateAllocs pins the compute hot path's
// zero-allocation property: after the first iteration has sized every
// layer workspace (forward outputs, backward gradients, loss buffers,
// optimizer state), a full forward + loss + backward + SGD step allocates
// nothing. The model is small enough that the matmul kernels run inline
// (no goroutine fan-out), so the measurement is exact.
func TestTrainingIterationSteadyStateAllocs(t *testing.T) {
	skipIfRace(t)
	r := rng.New(41)
	model := NewSequential(
		NewLinear(8, 16, r),
		NewBatchNorm(16),
		NewReLU(),
		NewLinear(16, 4, r),
	)
	params := model.Params() // hoisted: Params() builds a fresh slice
	opt := NewSGD(0.9, 1e-4)
	var ce SoftmaxCrossEntropy
	x := tensor.New(8, 8)
	labels := make([]int, 8)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	for i := range labels {
		labels[i] = i % 4
	}
	iter := func() {
		logits := model.Forward(x, true)
		ce.Forward(logits, labels)
		model.Backward(ce.Backward())
		opt.Step(params, 0.01)
	}
	iter() // size every workspace
	iter()
	if allocs := testing.AllocsPerRun(50, iter); allocs > 0 {
		t.Fatalf("steady-state training iteration allocates %.1f times, want 0", allocs)
	}
}

// TestTrainingIterationArenaZeroAllocs is the arena-backed variant of the
// steady-state pin: with a step arena attached (the trainer's
// configuration) and Reset at the top of every iteration, a full
// forward + loss + backward + SGD step performs zero heap allocations and
// the arena's high-water mark is stable — every workspace re-bumps the
// same backing array. The input layer's dx (batch×features, the largest
// workspace of a wide-input model) is not among them.
func TestTrainingIterationArenaZeroAllocs(t *testing.T) {
	skipIfRace(t)
	r := rng.New(43)
	model := NewSequential(
		NewLinear(8, 16, r),
		NewBatchNorm(16),
		NewReLU(),
		NewDropout(0.1, rng.New(7)),
		NewLinear(16, 4, r),
	)
	a := arena.New(0)
	model.SetArena(a)
	var ce SoftmaxCrossEntropy
	ce.SetArena(a)
	params := model.Params()
	opt := NewSGD(0.9, 1e-4)
	x := tensor.New(8, 8)
	labels := make([]int, 8)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	for i := range labels {
		labels[i] = i % 4
	}
	iter := func() {
		a.Reset()
		logits := model.Forward(x, true)
		ce.Forward(logits, labels)
		model.Backward(ce.Backward())
		opt.Step(params, 0.01)
	}
	iter() // size every workspace and grow the arena once
	iter()
	used := a.Used()
	if allocs := testing.AllocsPerRun(50, iter); allocs > 0 {
		t.Fatalf("arena-backed training iteration allocates %.1f times, want 0", allocs)
	}
	if a.Used() != used {
		t.Fatalf("arena high-water mark drifted: %d -> %d floats", used, a.Used())
	}
	model.Layers[0].(*Linear).input = false // what the mark was before NewSequential set it
	iter()
	if got, want := a.Used(), used+x.Rows*x.Cols; got != want {
		t.Fatalf("arena high-water mark with the input layer's dx = %d floats, want %d (the mark plus batch×features)", got, want)
	}
}

// TestArenaTrainingMatchesHeapTraining pins that attaching an arena is
// purely an allocation strategy: identical seeds and inputs produce
// bitwise-identical weights with and without it.
func TestArenaTrainingMatchesHeapTraining(t *testing.T) {
	build := func(withArena bool) []Param {
		r := rng.New(77)
		model := NewSequential(
			NewLinear(8, 16, r),
			NewBatchNorm(16),
			NewReLU(),
			NewDropout(0.1, rng.New(9)),
			NewLinear(16, 4, r),
		)
		var ce SoftmaxCrossEntropy
		var a *arena.Arena
		if withArena {
			a = arena.New(0)
			model.SetArena(a)
			ce.SetArena(a)
		}
		params := model.Params()
		opt := NewSGD(0.9, 1e-4)
		dr := rng.New(5)
		x := tensor.New(8, 8)
		labels := make([]int, 8)
		for it := 0; it < 6; it++ {
			if a != nil {
				a.Reset()
			}
			for i := range x.Data {
				x.Data[i] = dr.NormFloat32()
			}
			for i := range labels {
				labels[i] = dr.Intn(4)
			}
			logits := model.Forward(x, true)
			ce.Forward(logits, labels)
			model.Backward(ce.Backward())
			opt.Step(params, 0.01)
		}
		return params
	}
	heap := build(false)
	ar := build(true)
	for i := range heap {
		for j := range heap[i].W {
			if heap[i].W[j] != ar[i].W[j] {
				t.Fatalf("param %d[%d]: heap %v != arena %v", i, j, heap[i].W[j], ar[i].W[j])
			}
		}
	}
}

// TestBackwardKernelsSteadyStateAllocs isolates the MatMulTAInto /
// MatMulTBInto / ColSumInto trio behind Linear.Backward: with destination
// matrices reused, the kernels must not allocate.
func TestBackwardKernelsSteadyStateAllocs(t *testing.T) {
	skipIfRace(t)
	r := rng.New(42)
	a := tensor.New(8, 8)
	b := tensor.New(8, 8)
	a.Randn(r, 1)
	b.Randn(r, 1)
	dta := tensor.New(8, 8)
	dtb := tensor.New(8, 8)
	col := make([]float32, 8)
	if allocs := testing.AllocsPerRun(100, func() {
		tensor.MatMulTAInto(dta, a, b)
		tensor.MatMulTBInto(dtb, a, b)
		a.ColSumInto(col)
	}); allocs > 0 {
		t.Fatalf("Into kernels allocate %.1f times per run, want 0", allocs)
	}
}

// skipIfRace skips allocation-regression tests under the race detector
// (see raceEnabled).
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}
