package nn

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"plshuffle/internal/rng"
	"plshuffle/internal/tensor"
)

// stateSpec is the architecture used by the optimizer/RNG round-trip tests:
// batch-norm for Stateful coverage plus dropout so the model carries a live
// RNG stream.
var stateSpec = ModelSpec{Name: "state", InputDim: 8, Hidden: []int{16, 8}, Classes: 4, BatchNorm: true, Dropout: 0.25}

func stateOptimizers() map[string]func() Optimizer {
	return map[string]func() Optimizer{
		"sgd":  func() Optimizer { return NewSGD(0.9, 1e-4) },
		"lars": func() Optimizer { return NewLARS(0.9, 1e-4, 0.01) },
	}
}

// trainSteps advances (model, opt) n steps on a fixed batch, exercising the
// dropout RNG stream via train-mode forwards.
func trainSteps(model *Sequential, opt Optimizer, x *tensor.Matrix, labels []int, n int, partial bool) {
	var ce SoftmaxCrossEntropy
	for i := 0; i < n; i++ {
		logits := model.Forward(x, true)
		ce.Forward(logits, labels)
		model.Backward(ce.Backward())
		params := model.Params()
		if partial {
			// Tile the step in two buckets, as the overlapped gradient sync
			// does; the snapshot taken between iterations must still match.
			mid := len(params) / 2
			opt.StepPartial(params, 0, mid, 0.1)
			opt.StepPartial(params, mid, len(params), 0.1)
		} else {
			opt.Step(params, 0.1)
		}
	}
}

// TestOptimizerStateRoundTrip is the satellite property test: for every
// optimizer kind, a mid-run snapshot (weights + moments + RNG cursors)
// restored into a freshly built world must continue bitwise-identically to
// the uninterrupted run — the same property the checkpoint/resume layer
// asserts end to end.
func TestOptimizerStateRoundTrip(t *testing.T) {
	for name, mk := range stateOptimizers() {
		for _, partial := range []bool{false, true} {
			mode := map[bool]string{false: "flat", true: "partial"}[partial]
			t.Run(name+"/"+mode, func(t *testing.T) {
				r := rng.New(97)
				x, labels := smallBatch(r, 32, 8, 4)

				model, err := stateSpec.Build(1, 2)
				if err != nil {
					t.Fatal(err)
				}
				opt := mk()
				trainSteps(model, opt, x, labels, 7, partial)

				// Snapshot at the iteration boundary.
				var wBuf, oBuf bytes.Buffer
				if err := SaveWeights(&wBuf, model); err != nil {
					t.Fatal(err)
				}
				if err := SaveOptimizerState(&oBuf, opt); err != nil {
					t.Fatal(err)
				}
				rngStates := RNGStates(model)
				if len(rngStates) == 0 {
					t.Fatal("dropout model exposes no RNG streams; test setup broken")
				}

				// Uninterrupted reference.
				trainSteps(model, opt, x, labels, 5, partial)
				want := checkpointTensors(model)

				// Resume into a differently seeded fresh world.
				fresh, err := stateSpec.Build(99, 98)
				if err != nil {
					t.Fatal(err)
				}
				if err := LoadWeights(&wBuf, fresh); err != nil {
					t.Fatal(err)
				}
				if err := SetRNGStates(fresh, rngStates); err != nil {
					t.Fatal(err)
				}
				fopt := mk()
				if err := LoadOptimizerState(&oBuf, fopt); err != nil {
					t.Fatal(err)
				}
				trainSteps(fresh, fopt, x, labels, 5, partial)
				got := checkpointTensors(fresh)

				for i := range want {
					for j := range want[i].W {
						if got[i].W[j] != want[i].W[j] {
							t.Fatalf("resumed run diverges at tensor %q[%d]: %v vs %v",
								want[i].Name, j, got[i].W[j], want[i].W[j])
						}
					}
				}
			})
		}
	}
}

// TestOptimizerStateLazyNil pins the epoch-0 case: a snapshot taken before
// any Step records the lazily initialized state as absent, and restores as
// absent.
func TestOptimizerStateLazyNil(t *testing.T) {
	for name, mk := range stateOptimizers() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := SaveOptimizerState(&buf, mk()); err != nil {
				t.Fatal(err)
			}
			fresh := mk()
			if err := LoadOptimizerState(bytes.NewReader(buf.Bytes()), fresh); err != nil {
				t.Fatal(err)
			}
			switch o := fresh.(type) {
			case *SGD:
				if o.moments != nil {
					t.Fatal("nil velocity materialized through the round trip")
				}
			case *LARS:
				if o.velocity != nil || o.is1D != nil {
					t.Fatal("nil velocity materialized through the round trip")
				}
			}
		})
	}
}

func TestOptimizerStateKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveOptimizerState(&buf, NewSGD(0.9, 0)); err != nil {
		t.Fatal(err)
	}
	if err := LoadOptimizerState(bytes.NewReader(buf.Bytes()), NewLARS(0.9, 0, 0.01)); err == nil {
		t.Fatal("SGD snapshot accepted by a LARS optimizer")
	}
	if err := LoadOptimizerState(bytes.NewReader([]byte("garbage....")), NewSGD(0.9, 0)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// lambSnapshot is a well-formed snapshot of the removed LAMB optimizer:
// kind byte 2, then its layout — first and second moments as two slice
// sets, the bias-correction step and the tiling counter as int64s.
func lambSnapshot() []byte {
	var buf bytes.Buffer
	buf.Write(optimizerMagic[:])
	buf.WriteByte(2)
	moments := [][]float32{{0.5, -0.25}, {1}}
	for range 2 {
		if err := writeSlices(&buf, moments); err != nil {
			panic(err)
		}
	}
	binary.Write(&buf, binary.LittleEndian, [2]int64{7, 0})
	return buf.Bytes()
}

// TestOptimizerStateRefusesLAMBSnapshot keeps the kind check covered now
// that no optimizer writes kind 2: a LAMB snapshot is refused by every
// optimizer that remains, and the error names the kind it found.
func TestOptimizerStateRefusesLAMBSnapshot(t *testing.T) {
	for name, mk := range stateOptimizers() {
		err := LoadOptimizerState(bytes.NewReader(lambSnapshot()), mk())
		if err == nil || !strings.Contains(err.Error(), "kind 2") {
			t.Errorf("%s: loading a LAMB snapshot: err = %v, want a refusal naming kind 2", name, err)
		}
	}
}

func TestSetRNGStatesCountMismatch(t *testing.T) {
	model, err := stateSpec.Build(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetRNGStates(model, nil); err == nil {
		t.Fatal("missing RNG states accepted for a dropout model")
	}
	states := RNGStates(model)
	plain, err := ModelSpec{Name: "plain", InputDim: 8, Hidden: []int{16}, Classes: 4}.Build(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetRNGStates(plain, states); err == nil {
		t.Fatal("surplus RNG states accepted for a dropout-free model")
	}
}

// TestOptimizerStateShortInputAllocatesLittle pins the decoder's memory to
// the bytes it is given: counts just under stateLimit followed by nothing
// must fail at EOF without reserving what they promised.
func TestOptimizerStateShortInputAllocatesLittle(t *testing.T) {
	// blob is a snapshot header followed by fields: a uint8 presence byte or
	// a uint32 count.
	blob := func(kind byte, fields ...any) []byte {
		var buf bytes.Buffer
		buf.Write(optimizerMagic[:])
		buf.WriteByte(kind)
		for _, f := range fields {
			binary.Write(&buf, binary.LittleEndian, f)
		}
		return buf.Bytes()
	}
	const present, absent, most = uint8(1), uint8(0), uint32(stateLimit)
	for _, tc := range []struct {
		name string
		blob []byte
		opt  Optimizer
	}{
		{"slice count", blob(optKindSGD, present, most), NewSGD(0.9, 0)},
		{"slice length", blob(optKindSGD, present, uint32(1), most), NewSGD(0.9, 0)},
		{"bool count", blob(optKindLARS, absent, present, most), NewLARS(0.9, 0, 0.01)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := LoadOptimizerState(bytes.NewReader(tc.blob), tc.opt)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: truncated snapshot accepted", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d", tc.name, len(tc.blob), grew)
		}
	}
}

// FuzzOptimizerState pins the decoder against attacker-shaped bytes, like
// the wire codec fuzzers: arbitrary input may error but must never panic or
// over-allocate, and a valid snapshot must round-trip.
func FuzzOptimizerState(f *testing.F) {
	r := rng.New(3)
	x, labels := smallBatch(r, 8, 8, 4)
	for _, mk := range stateOptimizers() {
		model, err := stateSpec.Build(1, 2)
		if err != nil {
			f.Fatal(err)
		}
		opt := mk()
		trainSteps(model, opt, x, labels, 3, false)
		var buf bytes.Buffer
		if err := SaveOptimizerState(&buf, opt); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte("PLSO\x01\x02\x01\xff\xff\xff\xff"))
	lamb := lambSnapshot()
	f.Add(lamb)
	f.Add(lamb[:len(lamb)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, mk := range stateOptimizers() {
			_ = LoadOptimizerState(bytes.NewReader(b), mk())
		}
	})
}
