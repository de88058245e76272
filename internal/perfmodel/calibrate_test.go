package perfmodel

import (
	"testing"
	"time"

	"plshuffle/internal/nn"
	"plshuffle/internal/rng"
	"plshuffle/internal/tensor"
)

var calSmall = nn.ModelSpec{
	Name: "cal-small", InputDim: 256, Hidden: []int{256}, Classes: 10,
}

var calLarge = nn.ModelSpec{
	Name: "cal-large", InputDim: 256, Hidden: []int{1024, 1024}, Classes: 10,
}

func TestMLPFlopsAndParams(t *testing.T) {
	// Forward, xᵀ·dy and dy·Wᵀ per Linear, minus the input layer's dy·Wᵀ.
	if got, want := MLPFlopsPerSample(calSmall), 4.0*256*256+6.0*256*10; got != want {
		t.Fatalf("MLPFlopsPerSample = %v, want %v", got, want)
	}
	// Weights + biases, no norm layers in the spec.
	if got, want := MLPParamBytes(calSmall), int64(4*(256*256+256+256*10+10)); got != want {
		t.Fatalf("MLPParamBytes = %d, want %d", got, want)
	}
	withBN := calSmall
	withBN.BatchNorm = true
	if got, want := MLPParamBytes(withBN), int64(4*(256*256+256+256*10+10+2*256)); got != want {
		t.Fatalf("MLPParamBytes with BatchNorm = %d, want %d", got, want)
	}
}

func TestCalibratedProfileOrdering(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-based calibration under -race")
	}
	small, err := CalibratedProfile(calSmall, 16)
	if err != nil {
		t.Fatal(err)
	}
	large, err := CalibratedProfile(calLarge, 16)
	if err != nil {
		t.Fatal(err)
	}
	if small.ComputePerSample <= 0 || large.ComputePerSample <= 0 {
		t.Fatalf("non-positive calibrated compute: %v, %v", small.ComputePerSample, large.ComputePerSample)
	}
	if small.ComputePerSample >= large.ComputePerSample {
		t.Fatalf("calibration ordering inverted: small %v >= large %v",
			small.ComputePerSample, large.ComputePerSample)
	}
	if small.ParamBytes >= large.ParamBytes {
		t.Fatalf("param ordering inverted: %d >= %d", small.ParamBytes, large.ParamBytes)
	}
}

// bestOf is how this file measures: the smallest of n timings. Whatever
// else holds the cores while a test runs — another package's test binary,
// a neighbour on the machine — only ever adds time, so the minimum is the
// estimate of what the kernels do when left alone, and it is taken on both
// sides of every comparison below.
const bestOf = 5

// timedPerSample trains the REAL model (forward, loss, backward) and
// returns measured seconds per sample: the best of bestOf blocks of iters
// mini-batches.
func timedPerSample(t *testing.T, spec nn.ModelSpec, batch, iters int) float64 {
	t.Helper()
	model, err := spec.Build(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ce nn.SoftmaxCrossEntropy
	r := rng.New(9)
	x := tensor.New(batch, spec.InputDim)
	labels := make([]int, batch)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	for i := range labels {
		labels[i] = r.Intn(spec.Classes)
	}
	step := func() {
		logits := model.Forward(x, true)
		ce.Forward(logits, labels)
		model.Backward(ce.Backward())
	}
	step() // size the workspaces outside the timed region
	best := time.Duration(1<<63 - 1)
	for b := 0; b < bestOf; b++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			step()
		}
		best = min(best, time.Since(t0))
	}
	return best.Seconds() / float64(iters*batch)
}

// calibratedPerSample is the model's side of the comparison: the best of
// bestOf calibrations.
func calibratedPerSample(t *testing.T, spec nn.ModelSpec, batch int) float64 {
	t.Helper()
	best := 0.0
	for b := 0; b < bestOf; b++ {
		prof, err := CalibratedProfile(spec, batch)
		if err != nil {
			t.Fatal(err)
		}
		if b == 0 || prof.ComputePerSample < best {
			best = prof.ComputePerSample
		}
	}
	return best
}

// TestCalibrationCrossValidatesRealEpoch is the satellite's teeth: the
// calibrated per-sample compute must track a real timed training epoch on
// the same machine. The model omits activation/normalization/loss work and
// the backward pass's transposed-matmul shapes, so the comparison asserts
// ordering and a generous agreement band, not equality. Each model is
// measured once per side (see bestOf) and every verdict is read off those
// four numbers.
func TestCalibrationCrossValidatesRealEpoch(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-based cross-validation under -race")
	}
	const batch = 16
	var modeled, measured [2]float64
	for i, spec := range []nn.ModelSpec{calSmall, calLarge} {
		modeled[i] = calibratedPerSample(t, spec, batch)
		measured[i] = timedPerSample(t, spec, batch, 40)
		ratio := measured[i] / modeled[i]
		t.Logf("%s: modeled %.3gs/sample, measured %.3gs/sample (ratio %.2f)", spec.Name, modeled[i], measured[i], ratio)
		// The real step can only be slower than the matmul-only model, and
		// on any sane machine not by more than ~10x.
		if ratio < 0.8 {
			t.Errorf("%s: real epoch faster than the matmul-only model (ratio %.2f) — calibration overestimates compute", spec.Name, ratio)
		}
		if ratio > 10 {
			t.Errorf("%s: real epoch %.1fx the model — calibration lost touch with the kernels", spec.Name, ratio)
		}
	}
	// Ordering: the wider model must be slower both modeled and measured.
	if !(modeled[0] < modeled[1] && measured[0] < measured[1]) {
		t.Fatalf("ordering broken: modeled %v < %v = %v, measured %v < %v = %v",
			modeled[0], modeled[1], modeled[0] < modeled[1],
			measured[0], measured[1], measured[0] < measured[1])
	}
}
