package nn

import (
	"math"
	"testing"

	"plshuffle/internal/rng"
	"plshuffle/internal/tensor"
)

func TestGroupNormNormalizesPerSample(t *testing.T) {
	r := rng.New(21)
	gn := NewGroupNorm(8, 2)
	x := tensor.New(4, 8)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()*5 + 3
	}
	y := gn.Forward(x, true)
	// Each (row, group) segment must have ~zero mean and ~unit variance.
	for i := 0; i < 4; i++ {
		row := y.Row(i)
		for g := 0; g < 2; g++ {
			seg := row[g*4 : (g+1)*4]
			var mean, variance float64
			for _, v := range seg {
				mean += float64(v)
			}
			mean /= 4
			for _, v := range seg {
				variance += (float64(v) - mean) * (float64(v) - mean)
			}
			variance /= 4
			if math.Abs(mean) > 1e-4 {
				t.Fatalf("row %d group %d mean %v", i, g, mean)
			}
			if math.Abs(variance-1) > 0.01 {
				t.Fatalf("row %d group %d variance %v", i, g, variance)
			}
		}
	}
}

func TestGroupNormIndependentOfBatchAndMode(t *testing.T) {
	r := rng.New(22)
	gn := NewGroupNorm(4, 2)
	x1 := tensor.New(1, 4)
	for i := range x1.Data {
		x1.Data[i] = r.NormFloat32()
	}
	// Same row inside a larger batch must normalize identically — the
	// property that makes GroupNorm immune to shard bias.
	x3 := tensor.New(3, 4)
	copy(x3.Row(1), x1.Row(0))
	for _, j := range []int{0, 2} {
		for k := 0; k < 4; k++ {
			x3.Set(j, k, r.NormFloat32()*10)
		}
	}
	// Forward results are layer-owned workspaces; Clone anything retained
	// across calls (the Layer buffer-ownership contract).
	y1 := gn.Forward(x1, true).Clone()
	y3 := gn.Forward(x3, true)
	for k := 0; k < 4; k++ {
		if y1.At(0, k) != y3.At(1, k) {
			t.Fatal("GroupNorm output depends on other batch rows")
		}
	}
	// Train and eval modes are identical.
	yTrain := gn.Forward(x1, true).Clone()
	yEval := gn.Forward(x1, false)
	for k := range yTrain.Data {
		if yTrain.Data[k] != yEval.Data[k] {
			t.Fatal("GroupNorm differs between train and eval mode")
		}
	}
}

func TestGradCheckWithGroupNorm(t *testing.T) {
	r := rng.New(23)
	model := NewSequential(NewLinear(5, 8, r), NewGroupNorm(8, 2), NewReLU(), NewLinear(8, 3, r))
	x, labels := smallBatch(r, 6, 5, 3)
	gradCheck(t, model, x, labels)
}

func TestGroupNormConstructorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("groups not dividing dim did not panic")
		}
	}()
	NewGroupNorm(10, 3)
}

func TestGroupsFor(t *testing.T) {
	cases := map[int]int{48: 8, 96: 8, 40: 8, 12: 4, 6: 2, 7: 1}
	for dim, want := range cases {
		if got := groupsFor(dim); got != want {
			t.Errorf("groupsFor(%d) = %d, want %d", dim, got, want)
		}
	}
}

func TestModelSpecNormChoices(t *testing.T) {
	base := ModelSpec{Name: "t", InputDim: 8, Hidden: []int{8}, Classes: 2}
	for _, n := range []Norm{NormBatch, NormGroup, NormNone} {
		m, err := base.WithNorm(n).Build(1, 1)
		if err != nil {
			t.Fatalf("norm %q: %v", n, err)
		}
		hasBN, hasGN := false, false
		for _, l := range m.Layers {
			switch l.(type) {
			case *BatchNorm:
				hasBN = true
			case *GroupNorm:
				hasGN = true
			}
		}
		switch n {
		case NormBatch:
			if !hasBN || hasGN {
				t.Fatalf("NormBatch layers wrong: bn=%v gn=%v", hasBN, hasGN)
			}
		case NormGroup:
			if hasBN || !hasGN {
				t.Fatalf("NormGroup layers wrong: bn=%v gn=%v", hasBN, hasGN)
			}
		case NormNone:
			if hasBN || hasGN {
				t.Fatal("NormNone still has a normalization layer")
			}
		}
	}
	if err := (ModelSpec{Name: "bad", InputDim: 4, Hidden: []int{4}, Classes: 2, Norm: "layer"}).Validate(); err == nil {
		t.Fatal("unknown norm accepted")
	}
	// Legacy BatchNorm flag still works.
	m, err := ModelSpec{Name: "legacy", InputDim: 4, Hidden: []int{4}, Classes: 2, BatchNorm: true}.Build(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range m.Layers {
		if _, ok := l.(*BatchNorm); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("legacy BatchNorm flag ignored")
	}
}

func TestGroupNormLearns(t *testing.T) {
	r := rng.New(31)
	const n, dim, classes = 256, 8, 4
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		for j := 0; j < dim; j++ {
			v := r.NormFloat32() * 0.3
			if j == c {
				v += 2
			}
			x.Set(i, j, v)
		}
	}
	spec := ModelSpec{Name: "gn", InputDim: dim, Hidden: []int{32}, Classes: classes, Norm: NormGroup}
	model, err := spec.Build(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.9, 1e-4)
	var ce SoftmaxCrossEntropy
	for epoch := 0; epoch < 30; epoch++ {
		logits := model.Forward(x, true)
		ce.Forward(logits, labels)
		model.Backward(ce.Backward())
		opt.Step(model.Params(), 0.1)
	}
	if acc := Accuracy(model.Forward(x, false), labels); acc < 0.95 {
		t.Fatalf("GroupNorm model accuracy %v", acc)
	}
}
