package nn

import (
	"math"
	"testing"

	"plshuffle/internal/rng"
	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
)

// TestInPlaceBackwardMatchesElementLoops holds each layer that writes its
// gradient over dout to the element loop that used to fill a separate dx,
// bit for bit, at a ragged width and a vector-friendly one, and pins that
// the result is dout itself. BatchNorm's loop is
// TestBatchNormMatchesElementLoops.
func TestInPlaceBackwardMatchesElementLoops(t *testing.T) {
	const rows = 7
	for _, dim := range []int{12, 64} {
		r := rng.New(uint64(dim))
		x, dy := tensor.New(rows, dim), tensor.New(rows, dim)
		x.Randn(r, 1)
		dy.Randn(r, 1)
		x.Data[3] = 0 // ReLU's boundary: +0 blocks the gradient
		check := func(name string, l Layer, want []float32) {
			t.Helper()
			dout := dy.Clone()
			if got := l.Backward(dout); got != dout {
				t.Fatalf("%s dim %d: Backward returned a matrix other than its dout", name, dim)
			}
			for i, w := range want {
				if math.Float32bits(dout.Data[i]) != math.Float32bits(w) {
					t.Fatalf("%s dim %d: element %d: %v, want %v", name, dim, i, dout.Data[i], w)
				}
			}
		}

		relu := NewReLU()
		out := relu.Forward(x, true)
		want := make([]float32, len(dy.Data))
		for i, g := range dy.Data {
			if out.Data[i] > 0 {
				want[i] = g
			}
		}
		check("ReLU", relu, want)

		ones := tensor.New(rows, dim)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		drop := NewDropout(0.4, rng.New(3))
		mask := drop.Forward(ones, true) // 1·mask: the mask itself
		for i, g := range dy.Data {
			want[i] = g * mask.Data[i]
		}
		check("Dropout", drop, want)

		const groups = 4
		gn := NewGroupNorm(dim, groups)
		for j := range gn.Gamma {
			gn.Gamma[j] = 0.5 + r.Float32()
		}
		gn.Forward(x, true)
		gsize := dim / groups
		n := float32(gsize)
		wantGGamma, wantGBeta := make([]float32, dim), make([]float32, dim)
		for i := 0; i < rows; i++ {
			drow, hrow := dy.Row(i), gn.xhat.Row(i)
			for j, d := range drow {
				wantGBeta[j] += d
				wantGGamma[j] += d * hrow[j]
			}
			for g := 0; g < groups; g++ {
				var sumDy, sumDyXhat float32
				for j := g * gsize; j < (g+1)*gsize; j++ {
					d := drow[j] * gn.Gamma[j]
					sumDy += d
					sumDyXhat += d * hrow[j]
				}
				inv := gn.invStd[i*groups+g]
				for j := g * gsize; j < (g+1)*gsize; j++ {
					d := drow[j] * gn.Gamma[j]
					want[i*dim+j] = inv / n * (n*d - sumDy - hrow[j]*sumDyXhat)
				}
			}
		}
		check("GroupNorm", gn, want)
		for j := range wantGBeta {
			if math.Float32bits(gn.GBeta[j]) != math.Float32bits(wantGBeta[j]) || math.Float32bits(gn.GGamma[j]) != math.Float32bits(wantGGamma[j]) {
				t.Fatalf("GroupNorm dim %d: parameter gradient %d differs from the element loop", dim, j)
			}
		}
	}
}

// TestStepArenaHighWater pins what one training step of the compute
// benchmark's model — MLP 512-512-512+BN, 64 features, 16 classes, b=512 —
// holds in its arena: per hidden block the Linear output and BatchNorm's
// output and x̂ and ReLU's output (4·b·h), the head's logits, softmax
// probabilities and loss gradient (3·b·C), and the dx of every Linear but
// the input one (3·b·h). ReLU and BatchNorm write their gradients over
// dout, so they add nothing; and an arena that starts empty ends its first
// step holding exactly that much.
func TestStepArenaHighWater(t *testing.T) {
	const b, features, h, classes = 512, 64, 512, 16
	spec := ModelSpec{Name: "compute", InputDim: features, Hidden: []int{h, h, h}, Classes: classes, BatchNorm: true}
	model, err := spec.Build(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := arena.New(0)
	model.SetArena(a)
	var ce SoftmaxCrossEntropy
	ce.SetArena(a)
	x, labels := smallBatch(rng.New(5), b, features, classes)
	step := func() {
		a.Reset()
		ce.Forward(model.Forward(x, true), labels)
		model.Backward(ce.Backward())
	}
	step()
	want := 3*4*b*h + 3*b*classes + 3*b*h
	if a.Used() != want {
		t.Fatalf("one step bumped %d floats, want %d", a.Used(), want)
	}
	if a.Cap() != want {
		t.Fatalf("arena capacity after the first step %d floats, want its high-water mark %d", a.Cap(), want)
	}
	step()
	if a.Used() != want || a.Cap() != want {
		t.Fatalf("second step: used %d, capacity %d floats, want both %d", a.Used(), a.Cap(), want)
	}
}
