package nn

import (
	"fmt"
	"math"
	"testing"

	"plshuffle/internal/rng"
)

func testModel(t *testing.T, hidden []int, batchNorm bool) *Sequential {
	t.Helper()
	spec := ModelSpec{Name: "bucket-test", InputDim: 12, Classes: 5, Hidden: hidden, BatchNorm: batchNorm}
	m, err := spec.Build(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBucketPlanValidates builds plans across model shapes and byte caps
// and runs the plan's own tiling validator: buckets must cover the param
// order and the flat layout exactly, in reverse-layer order.
func TestBucketPlanValidates(t *testing.T) {
	shapes := []struct {
		hidden []int
		bn     bool
	}{
		{[]int{8}, false},
		{[]int{32, 16}, true},
		{[]int{64, 64, 32}, true},
	}
	caps := []int{0, 64, 1 << 10, 1 << 30} // default, tiny, small, one-bucket
	for _, sh := range shapes {
		for _, capBytes := range caps {
			t.Run(fmt.Sprintf("hidden=%v/bn=%v/cap=%d", sh.hidden, sh.bn, capBytes), func(t *testing.T) {
				model := testModel(t, sh.hidden, sh.bn)
				plan := NewBucketPlan(model, capBytes)
				if err := plan.Validate(model.Params()); err != nil {
					t.Fatal(err)
				}
				if len(plan.Buckets) == 0 {
					t.Fatal("plan has no buckets")
				}
				// Launch order is reverse-layer: bucket 0 ends the flat layout.
				if plan.Buckets[0].Hi != plan.NumEl {
					t.Errorf("bucket 0 ends at %d, want %d (deepest layers first)", plan.Buckets[0].Hi, plan.NumEl)
				}
				if last := plan.Buckets[len(plan.Buckets)-1]; last.Lo != 0 {
					t.Errorf("last bucket starts at %d, want 0", last.Lo)
				}
			})
		}
	}
}

// TestBucketPlanRespectsCap checks that multi-layer buckets never exceed
// the byte cap. A single layer whose parameters alone exceed the cap
// legitimately gets an oversized bucket of its own — buckets never split a
// layer — so over-cap buckets must span exactly one layer.
func TestBucketPlanRespectsCap(t *testing.T) {
	model := testModel(t, []int{64, 64, 32}, true)
	const capBytes = 4 << 10
	plan := NewBucketPlan(model, capBytes)
	if len(plan.Buckets) < 2 {
		t.Fatalf("cap %d produced %d bucket(s); test needs a multi-bucket plan", capBytes, len(plan.Buckets))
	}
	// Map param index -> layer index to tell single-layer buckets apart.
	paramLayer := make([]int, 0, len(model.Params()))
	for li, l := range model.Layers {
		for range l.Params() {
			paramLayer = append(paramLayer, li)
		}
	}
	for i, b := range plan.Buckets {
		multiLayer := paramLayer[b.FirstParam] != paramLayer[b.LastParam-1]
		if multiLayer && b.Elems()*4 > capBytes {
			t.Errorf("bucket %d groups layers %d..%d over %d bytes > cap %d",
				i, paramLayer[b.FirstParam], paramLayer[b.LastParam-1], b.Elems()*4, capBytes)
		}
	}
}

// TestBucketPlanReadyTiling checks that every bucket is readied by exactly
// one layer — its earliest contributing layer.
func TestBucketPlanReadyTiling(t *testing.T) {
	model := testModel(t, []int{32, 16}, true)
	plan := NewBucketPlan(model, 256)
	seen := make(map[int]int)
	for li := range model.Layers {
		for _, bi := range plan.ReadyAt(li) {
			seen[bi]++
			if got := plan.Buckets[bi].ReadyLayer; got != li {
				t.Errorf("bucket %d readied at layer %d but ReadyLayer=%d", bi, li, got)
			}
		}
	}
	for bi := range plan.Buckets {
		if seen[bi] != 1 {
			t.Errorf("bucket %d readied %d times, want exactly once", bi, seen[bi])
		}
	}
	if plan.ReadyAt(-1) != nil || plan.ReadyAt(len(model.Layers)) != nil {
		t.Error("out-of-range ReadyAt must return nil")
	}
}

// TestBackwardWithHookBucketGradsFinal runs a real backward pass and, at
// each bucket's ready hook, snapshots the bucket's gradient range. The
// snapshots must bitwise-match the final gradients after backward
// completes — the property that makes launching the bucket's all-reduce
// from the hook safe.
func TestBackwardWithHookBucketGradsFinal(t *testing.T) {
	model := testModel(t, []int{32, 16}, true)
	params := model.Params()
	plan := NewBucketPlan(model, 256)
	if err := plan.Validate(params); err != nil {
		t.Fatal(err)
	}

	r := rng.New(3)
	x, labels := smallBatch(r, 8, 12, 5)
	var ce SoftmaxCrossEntropy
	ce.Forward(model.Forward(x, true), labels)

	snaps := make(map[int][]float32)
	var order []int
	model.BackwardWithHook(ce.Backward(), func(layer int) {
		for _, bi := range plan.ReadyAt(layer) {
			b := plan.Buckets[bi]
			snaps[bi] = append([]float32(nil), model.Grads()[b.Lo:b.Hi]...)
			order = append(order, bi)
		}
	})

	if len(snaps) != len(plan.Buckets) {
		t.Fatalf("hooks readied %d buckets, want %d", len(snaps), len(plan.Buckets))
	}
	// Buckets must become ready in launch order (deepest layers first).
	for i, bi := range order {
		if bi != i {
			t.Fatalf("ready order %v, want ascending bucket indices", order)
		}
	}
	final := FlattenGrads(params, nil)
	for bi, snap := range snaps {
		b := plan.Buckets[bi]
		for j, v := range snap {
			if math.Float32bits(v) != math.Float32bits(final[b.Lo+j]) {
				t.Fatalf("bucket %d grad %d changed after its ready hook: %v -> %v", bi, j, v, final[b.Lo+j])
			}
		}
	}
}

// TestParamGradsAliasArena pins the gradient arena: for every layer kind
// with parameters, Params()[i].G is the arena itself at the parameter's
// FlattenGrads offset — same memory, not a copy — so a bucket's range of
// Grads() is the bucket, a ring over it needs no flatten, and what backward
// writes is what the ring reads.
func TestParamGradsAliasArena(t *testing.T) {
	r := rng.New(11)
	models := map[string]*Sequential{
		"linear+batchnorm": testModel(t, []int{16, 8}, true),
		"linear+groupnorm": NewSequential(NewLinear(12, 8, r), NewGroupNorm(8, 2), NewReLU(), NewLinear(8, 5, r)),
		"linear":           testModel(t, []int{8}, false),
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			params, arena := model.Params(), model.Grads()
			if len(arena) != model.NumParams() {
				t.Fatalf("arena holds %d elements, model has %d parameters", len(arena), model.NumParams())
			}
			off := 0
			for i, p := range params {
				if len(p.G) != len(p.W) {
					t.Fatalf("param %d (%s): %d gradients for %d weights", i, p.Name, len(p.G), len(p.W))
				}
				if &p.G[0] != &arena[off] {
					t.Fatalf("param %d (%s): G does not alias the arena at flat offset %d", i, p.Name, off)
				}
				if cap(p.G) != len(p.G) {
					t.Fatalf("param %d (%s): G has spare capacity %d reaching into the next tensor", i, p.Name, cap(p.G)-len(p.G))
				}
				off += len(p.G)
			}

			// A real backward pass lands in the arena in FlattenGrads order,
			// and a write to the arena is a write to the layer's gradient.
			x, labels := smallBatch(rng.New(3), 8, 12, 5)
			var ce SoftmaxCrossEntropy
			ce.Forward(model.Forward(x, true), labels)
			model.Backward(ce.Backward())
			nonzero := false
			for i, v := range FlattenGrads(params, nil) {
				if math.Float32bits(v) != math.Float32bits(arena[i]) {
					t.Fatalf("flat element %d: FlattenGrads %v, arena %v", i, v, arena[i])
				}
				nonzero = nonzero || v != 0
			}
			if !nonzero {
				t.Fatal("backward left every gradient zero: the layers write somewhere else")
			}
			for i := range arena {
				arena[i] = float32(i)
			}
			for i, v := range FlattenGrads(model.Params(), nil) {
				if v != float32(i) {
					t.Fatalf("flat element %d reads %v after the arena was set to %v", i, v, float32(i))
				}
			}
		})
	}
}

// TestStepPartialTilingBitwise pins the optimizer contract the per-bucket
// drain relies on: stepping a tiling of [0, len(params)) in bucket order
// must be bitwise-identical to one full Step, for every optimizer,
// including across iterations (positional state: velocities and LARS's
// 1-D parameter flags).
func TestStepPartialTilingBitwise(t *testing.T) {
	opts := []struct {
		name string
		mk   func() Optimizer
	}{
		{"sgd", func() Optimizer { return NewSGD(0.9, 1e-4) }},
		{"lars", func() Optimizer { return NewLARS(0.9, 1e-4, 0.001) }},
	}
	for _, oc := range opts {
		t.Run(oc.name, func(t *testing.T) {
			full := testModel(t, []int{16, 8}, true)
			tiled := testModel(t, []int{16, 8}, true)
			fp, tp := full.Params(), tiled.Params()
			fo, to := oc.mk(), oc.mk()
			plan := NewBucketPlan(tiled, 128)
			if len(plan.Buckets) < 2 {
				t.Fatal("test needs a multi-bucket plan")
			}

			r := rng.New(5)
			x, labels := smallBatch(r, 8, 12, 5)
			var ce SoftmaxCrossEntropy
			for iter := 0; iter < 4; iter++ {
				lr := float32(0.05) / float32(iter+1)
				ce.Forward(full.Forward(x, true), labels)
				full.Backward(ce.Backward())
				ce.Forward(tiled.Forward(x, true), labels)
				tiled.Backward(ce.Backward())

				fo.Step(fp, lr)
				for _, b := range plan.Buckets { // drain order: reverse-layer
					to.StepPartial(tp, b.FirstParam, b.LastParam, lr)
				}
				for pi := range fp {
					for j := range fp[pi].W {
						if math.Float32bits(fp[pi].W[j]) != math.Float32bits(tp[pi].W[j]) {
							t.Fatalf("iter %d param %d coord %d: full %v, tiled %v",
								iter, pi, j, fp[pi].W[j], tp[pi].W[j])
						}
					}
				}
			}
		})
	}
}
