package train

import (
	"math"
	"runtime"
	"testing"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/transport/transporttest"
)

// flatWeights concatenates a param set's weights.
func flatWeights(params []nn.Param) []float32 {
	var out []float32
	for _, p := range params {
		out = append(out, p.W...)
	}
	return out
}

// requireBitwiseEqual fails unless a and b are bit-for-bit identical.
func requireBitwiseEqual(t *testing.T, label string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: weight vector lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: weight %d differs: %v (%x) vs %v (%x)",
				label, i, a[i], math.Float32bits(a[i]), b[i], math.Float32bits(b[i]))
		}
	}
}

// TestOverlapBitwiseEquivalence is the PR's headline acceptance check on
// the in-process runtime: a 4-rank run with the overlapped bucketed
// gradient sync must produce bit-for-bit the same weights, losses, and
// accuracies as the serial flat all-reduce, across optimizers and bucket
// sizes (including caps tiny enough to force one bucket per layer).
func TestOverlapBitwiseEquivalence(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cases := []struct {
		name        string
		lars        bool
		bucketBytes int
	}{
		{"sgd-default-buckets", false, 0},
		{"sgd-tiny-buckets", false, 512},
		{"lars-tiny-buckets", true, 512},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
			cfg.Epochs = 3
			if tc.lars {
				cfg.Optimizer = "lars"
			}

			flat := cfg
			flat.OverlapGrads = false
			fres, err := Run(flat)
			if err != nil {
				t.Fatal(err)
			}

			over := cfg
			over.OverlapGrads = true
			over.gradBucketBytes = tc.bucketBytes
			ores, err := Run(over)
			if err != nil {
				t.Fatal(err)
			}

			requireBitwiseEqual(t, "final weights", flatWeights(fres.FinalParams), flatWeights(ores.FinalParams))
			for e := range fres.Epochs {
				fe, oe := fres.Epochs[e], ores.Epochs[e]
				if fe.TrainLoss != oe.TrainLoss || fe.ValAcc != oe.ValAcc {
					t.Fatalf("epoch %d: flat loss/acc %v/%v, overlapped %v/%v",
						e, fe.TrainLoss, fe.ValAcc, oe.TrainLoss, oe.ValAcc)
				}
			}
		})
	}
}

// TestOverlapBitwiseEquivalenceOverTCP repeats the determinism check with
// every frame crossing real localhost TCP sockets — codec, framing, and
// the per-peer writer queues included. Two worlds run per mode (flat,
// overlapped); rank 0's final weights must match bit for bit.
func TestOverlapBitwiseEquivalenceOverTCP(t *testing.T) {
	ds := testDataset(t, 192, 4)
	run := func(overlap bool) []float32 {
		t.Helper()
		var w []float32
		err := transporttest.TCP().Run(4, func(c *mpi.Comm) error {
			cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
			cfg.Epochs = 3
			cfg.OverlapGrads = overlap
			cfg.gradBucketBytes = 512
			rr, err := RunRank(c, cfg)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				w = flatWeights(rr.FinalParams)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	requireBitwiseEqual(t, "tcp final weights", run(false), run(true))
}

// TestOverlapStats checks the new accounting: the overlapped path must
// report in-flight communication time for every epoch, zero gradient wire
// bytes on inproc, and real wire bytes on TCP (where flat and overlapped
// runs must also agree on the total, since they move identical frames).
func TestOverlapStats(t *testing.T) {
	ds := testDataset(t, 192, 4)
	mkcfg := func(overlap bool) Config {
		cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
		cfg.Epochs = 2
		cfg.OverlapGrads = overlap
		return cfg
	}

	t.Run("inproc", func(t *testing.T) {
		res, err := Run(mkcfg(true))
		if err != nil {
			t.Fatal(err)
		}
		for e, es := range res.Epochs {
			if es.GradWireBytes != 0 {
				t.Errorf("epoch %d: inproc GradWireBytes = %d, want 0", e, es.GradWireBytes)
			}
			if es.GEWUCommTime <= 0 {
				t.Errorf("epoch %d: GEWUCommTime = %v, want > 0", e, es.GEWUCommTime)
			}
			if es.GEWUWaitTime < 0 {
				t.Errorf("epoch %d: GEWUWaitTime = %v, want >= 0", e, es.GEWUWaitTime)
			}
		}
	})

	t.Run("tcp", func(t *testing.T) {
		gradBytes := func(overlap bool) []int64 {
			t.Helper()
			var out []int64
			err := transporttest.TCP().Run(4, func(c *mpi.Comm) error {
				rr, err := RunRank(c, mkcfg(overlap))
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					for _, es := range rr.Epochs {
						out = append(out, es.GradWireBytes)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		fb, ob := gradBytes(false), gradBytes(true)
		if len(fb) != len(ob) {
			t.Fatalf("epoch counts differ: %d vs %d", len(fb), len(ob))
		}
		for e := range fb {
			if fb[e] <= 0 || ob[e] <= 0 {
				t.Errorf("epoch %d: GradWireBytes flat=%d overlapped=%d, want both > 0", e, fb[e], ob[e])
			}
			if fb[e] != ob[e] {
				t.Errorf("epoch %d: flat moved %d gradient wire bytes, overlapped %d — identical frames expected",
					e, fb[e], ob[e])
			}
		}
	})
}

// TestOverlapNoGoroutineLeak runs a full overlapped training and checks the
// goroutine count returns to its baseline: every per-bucket collective
// goroutine must exit once its epoch's drain completes.
func TestOverlapNoGoroutineLeak(t *testing.T) {
	ds := testDataset(t, 192, 4)
	base := runtime.NumGoroutine()
	cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
	cfg.Epochs = 3
	cfg.OverlapGrads = true
	cfg.gradBucketBytes = 512 // several buckets per iteration
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOverlapValidate: a configuration with the overlapped gradient sync
// validates.
func TestOverlapValidate(t *testing.T) {
	ds := testDataset(t, 192, 4)
	cfg := baseConfig(t, ds, 2, shuffle.GlobalShuffling())
	cfg.OverlapGrads = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("overlapped gradient sync rejected: %v", err)
	}
}
