package distrun

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Golden weight checksums for the acceptance configurations (PLS and
// corgi2), captured on the pre-blocking scalar kernels with the flat
// all-reduce and required to survive every compute-kernel change since: the
// packed GEMM core (DESIGN.md §14) promises bitwise-identical training, so
// these constants are the end-to-end teeth of that promise. The overlapped
// all-reduce every world runs converges to the flat ring's bits by the
// bucket-order argument (DESIGN.md §9; internal/train's overlap tests pin
// the two paths against each other), hence one golden value per strategy.
const (
	goldenPLSWeightsCRC    = "930e840f"
	goldenCorgi2WeightsCRC = "a78e1d7e"
)

// TestKernelWeightCRCGolden runs full 4-rank TCP trainings and pins the
// final weights crc32c to the golden values above. Any kernel, blocking,
// or dispatch change that alters a single bit of any weight fails here.
// The same options run as a goroutine world (RunInproc) must print the same
// goldens: every world runs one per-rank program, over either transport.
func TestKernelWeightCRCGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank TCP end-to-end in -short mode")
	}
	dir, maxShard := ingestCorgiDataset(t)
	pls := Options{
		World: 4, Dataset: "cifar-100", Model: "mlp", Strategy: "partial",
		Q: 0.25, Epochs: 3, Batch: 16, LR: 0.05, Seed: 11,
		Timeout: 2 * time.Minute, OnPeerFail: "abort",
	}
	corgi := Options{
		World: 4, Model: "mlp", Strategy: "corgi2", DataDir: dir,
		CacheBytes: 3 * maxShard, GroupEpochs: 3, Epochs: 6, Batch: 16,
		LR: 0.05, Seed: 11, Timeout: 2 * time.Minute, OnPeerFail: "abort",
	}
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"pls-overlap", pls, goldenPLSWeightsCRC},
		{"corgi2-overlap", corgi, goldenCorgi2WeightsCRC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runCorgiWorld(t, tc.opts)
			m := weightsLine.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no weights line:\n%s", out)
			}
			if m[1] != tc.want {
				t.Fatalf("weights crc32c=%s, want golden %s (kernel change broke bitwise determinism)", m[1], tc.want)
			}
		})
	}
	for _, tc := range []struct {
		name   string
		opts   Options
		want   string
		report string // a line only the shared report prints
	}{
		{"pls-goroutines", pls, goldenPLSWeightsCRC, "sample balance OK"},
		{"corgi2-goroutines", corgi, goldenCorgi2WeightsCRC, "cache: hits="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := RunInproc(tc.opts, &out); err != nil {
				t.Fatal(err)
			}
			m := weightsLine.FindStringSubmatch(out.String())
			if m == nil {
				t.Fatalf("no weights line:\n%s", out.String())
			}
			if m[1] != tc.want {
				t.Fatalf("weights crc32c=%s, want golden %s (the goroutine world left the TCP world's bits)", m[1], tc.want)
			}
			if !strings.Contains(out.String(), "4 ranks over inproc") || !strings.Contains(out.String(), tc.report) {
				t.Fatalf("goroutine world report lacks %q or %q:\n%s", "4 ranks over inproc", tc.report, out.String())
			}
		})
	}
}
