package perfmodel

import (
	"testing"

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

// flopCounter wraps one of the real model's Linear layers and adds up the
// matmul flops each call actually runs: 2·rows·in·out for the forward
// product and for xᵀ·dy, and as much again for dy·Wᵀ when the layer
// computes an input gradient at all.
type flopCounter struct {
	*nn.Linear
	flops *float64
}

func (f flopCounter) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	*f.flops += 2 * float64(x.Rows) * float64(f.In) * float64(f.Out)
	return f.Linear.Forward(x, train)
}

func (f flopCounter) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := f.Linear.Backward(dout)
	per := 2 * float64(dout.Rows) * float64(f.In) * float64(f.Out)
	*f.flops += per
	if dx != nil {
		*f.flops += per
	}
	return dx
}

// TestCalibrationCrossValidatesRealEpoch holds the model's two per-step
// quantities to a real training step of the built model: the matmul flops
// per sample the step runs, counted call by call on its Linear layers, must
// be MLPFlopsPerSample, and the gradient buffer it all-reduces must be
// MLPParamBytes long. Seconds per sample are those flops over the measured
// GEMM rate; that rate is a wall-clock quantity and is not judged here.
func TestCalibrationCrossValidatesRealEpoch(t *testing.T) {
	const batch = 16
	withBN := calLarge
	withBN.Name, withBN.BatchNorm = "cal-large-bn", true
	for _, spec := range []nn.ModelSpec{calSmall, calLarge, withBN} {
		model, err := spec.Build(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		var flops float64
		for i, l := range model.Layers {
			if lin, ok := l.(*nn.Linear); ok {
				model.Layers[i] = flopCounter{Linear: lin, flops: &flops}
			}
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
		ce.Forward(model.Forward(x, true), labels)
		model.Backward(ce.Backward())
		if got, want := flops/batch, MLPFlopsPerSample(spec); got != want {
			t.Errorf("%s: the real step runs %.0f matmul flops per sample, the model counts %.0f", spec.Name, got, want)
		}
		if got, want := int64(4*len(model.Grads())), MLPParamBytes(spec); got != want {
			t.Errorf("%s: the real step all-reduces %d gradient bytes, the model counts %d", spec.Name, got, want)
		}
	}
}
