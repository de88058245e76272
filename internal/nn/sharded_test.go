package nn

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"plshuffle/internal/rng"
)

// TestParamWeightsAliasArena pins the weight arena: Params()[i].W is
// Weights() at the offset Params()[i].G has in Grads(), capped at its own
// length, and the initial weights survive the binding.
func TestParamWeightsAliasArena(t *testing.T) {
	r := rng.New(11)
	models := map[string]*Sequential{
		"linear+batchnorm": testModel(t, []int{16, 8}, true),
		"linear+groupnorm": NewSequential(NewLinear(12, 8, r), NewGroupNorm(8, 2), NewReLU(), NewLinear(8, 5, r)),
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			weights := model.Weights()
			if len(weights) != len(model.Grads()) {
				t.Fatalf("weight arena holds %d elements, gradient arena %d", len(weights), len(model.Grads()))
			}
			off, nonzero := 0, false
			for i, p := range model.Params() {
				if &p.W[0] != &weights[off] || cap(p.W) != len(p.W) {
					t.Fatalf("param %d (%s): W is not the arena at flat offset %d, capped", i, p.Name, off)
				}
				for _, v := range p.W {
					nonzero = nonzero || v != 0
				}
				off += len(p.W)
			}
			if !nonzero {
				t.Fatal("every weight is zero: the binding lost the initialization")
			}
		})
	}
}

// shardStep steps [lo, hi) with o in two calls split at an odd offset, as
// two buckets sharing the chunk would.
func shardStep(o *SGD, w, g []float32, lo, hi int, lr float32) {
	mid := lo + (hi-lo)/3
	o.StepRange(w, g, lo, mid, lr)
	o.StepRange(w, g, mid, hi, lr)
}

// TestSGDShardsMatchFullStep splits the flat parameter range into M chunks
// (boundaries mid-tensor and off the 8-lane vector width), gives each its
// own sharded SGD, and requires the chunks' StepRange updates to equal one
// full Step bit for bit over several iterations. Each shard's snapshot is
// the full optimizer's moments in its chunk and zeros elsewhere, in the
// per-tensor layout; restoring either kind of snapshot into a shard keeps
// exactly its chunk.
func TestSGDShardsMatchFullStep(t *testing.T) {
	for m := 1; m <= 4; m++ {
		t.Run(fmt.Sprintf("M=%d", m), func(t *testing.T) {
			full := testModel(t, []int{16, 8}, true)
			sharded := testModel(t, []int{16, 8}, true)
			p := len(full.Weights())
			fo := NewSGD(0.9, 1e-4)
			shards := make([]*SGD, m)
			for k := range shards {
				shards[k] = NewSGD(0.9, 1e-4)
				shards[k].Shard(sharded.Params(), k*p/m, (k+1)*p/m)
				if got, want := shards[k].StateFloats(), (k+1)*p/m-k*p/m; got != want {
					t.Fatalf("shard %d holds %d moments, its chunk %d", k, got, want)
				}
			}
			r := rng.New(9)
			for iter := 0; iter < 3; iter++ {
				for i := range full.Grads() {
					g := float32(r.NormFloat64())
					full.Grads()[i], sharded.Grads()[i] = g, g
				}
				lr := float32(0.05) / float32(iter+1)
				fo.Step(full.Params(), lr)
				for k, o := range shards {
					shardStep(o, sharded.Weights(), sharded.Grads(), k*p/m, (k+1)*p/m, lr)
				}
				for i, v := range full.Weights() {
					if math.Float32bits(v) != math.Float32bits(sharded.Weights()[i]) {
						t.Fatalf("iter %d: weight %d is %v after the full step, %v after the shards'", iter, i, v, sharded.Weights()[i])
					}
				}
			}

			var fullSnap bytes.Buffer
			if err := SaveOptimizerState(&fullSnap, fo); err != nil {
				t.Fatal(err)
			}
			for k, o := range shards {
				lo, hi := k*p/m, (k+1)*p/m
				var snap bytes.Buffer
				if err := SaveOptimizerState(&snap, o); err != nil {
					t.Fatal(err)
				}
				flat := NewSGD(0.9, 1e-4)
				if err := LoadOptimizerState(bytes.NewReader(snap.Bytes()), flat); err != nil {
					t.Fatal(err)
				}
				if len(flat.moments) != p {
					t.Fatalf("shard %d's snapshot holds %d moments, want the layout's %d", k, len(flat.moments), p)
				}
				for i, v := range flat.moments {
					want := float32(0)
					if i >= lo && i < hi {
						want = fo.moments[i]
					}
					if math.Float32bits(v) != math.Float32bits(want) {
						t.Fatalf("shard %d's snapshot: moment %d is %v, want %v", k, i, v, want)
					}
				}
				for name, b := range map[string][]byte{"replicated": fullSnap.Bytes(), "sharded": snap.Bytes()} {
					back := NewSGD(0.9, 1e-4)
					back.Shard(sharded.Params(), lo, hi)
					if err := LoadOptimizerState(bytes.NewReader(b), back); err != nil {
						t.Fatal(err)
					}
					if back.StateFloats() != hi-lo {
						t.Fatalf("shard %d restored from a %s snapshot holds %d moments, its chunk %d", k, name, back.StateFloats(), hi-lo)
					}
					for i, v := range back.moments {
						if math.Float32bits(v) != math.Float32bits(o.moments[i]) {
							t.Fatalf("shard %d restored from a %s snapshot: moment %d is %v, want %v", k, name, lo+i, v, o.moments[i])
						}
					}
				}
			}
		})
	}
}

// TestSGDShardRefusesForeignRange pins the guard: a shard asked to step
// outside its chunk panics rather than indexing someone else's moments.
func TestSGDShardRefusesForeignRange(t *testing.T) {
	model := testModel(t, []int{8}, false)
	o := NewSGD(0.9, 0)
	o.Shard(model.Params(), 10, 20)
	defer func() {
		if recover() == nil {
			t.Fatal("a step outside the shard's chunk did not panic")
		}
	}()
	o.StepRange(model.Weights(), model.Grads(), 15, 25, 0.1)
}
