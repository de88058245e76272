package train

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"testing"

	"plshuffle/internal/checkpoint"
	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/telemetry"
	"plshuffle/internal/tensor"
	"plshuffle/internal/transport/transporttest"
)

// ownChunk is the flat range whose moments group index gidx keeps in a
// group of m over p parameters: the chunk its rings leave it holding.
func ownChunk(gidx, m, p int) (lo, hi int) {
	own := (gidx + 1) % m
	return own * p / m, (own + 1) * p / m
}

// squareModel is in→h→out with in = h = out and no normalization: both
// Linear layers hold h·h+h parameters, so with one bucket per layer the
// bucket edge sits at P/2 — a chunk boundary for every even world size,
// which hands one rank an empty owned range in each bucket.
func squareModel(h int) nn.ModelSpec {
	return nn.ModelSpec{Name: "square", Hidden: []int{h}}.WithData(h, h)
}

// TestShardedStepBitwise pins the owner step against a reference that steps
// everything on every rank: each rank trains its worker (buckets launched by
// the backward hook, each ring stepping its owner's chunk and all-gathering
// weights) next to a replica it averages with one flat Allreduce and steps
// with an unsharded SGD, on the same per-rank batches. After every
// iteration the two weight arenas must agree bit for bit. The rows put
// chunk boundaries mid-tensor, off the 8-lane vector width (no chunk length
// below is a multiple of 8), and on bucket edges (the square model), on
// both backends at world sizes 1–4.
func TestShardedStepBitwise(t *testing.T) {
	const iters = 4
	rows := []struct {
		name     string
		model    nn.ModelSpec
		capBytes int // gradBucketBytes; 0 with overlap = the default cap
		overlap  bool
	}{
		{"square-per-layer", squareModel(5), 4, true},
		{"bn-per-layer", nn.ModelSpec{Name: "bn", Hidden: []int{13, 7}, BatchNorm: true}.WithData(5, 5), 4, true},
		{"bn-capped", nn.ModelSpec{Name: "bn", Hidden: []int{13, 7}, BatchNorm: true}.WithData(5, 5), 400, true},
		{"bn-one-bucket", nn.ModelSpec{Name: "bn", Hidden: []int{13, 7}, BatchNorm: true}.WithData(5, 5), 0, false},
	}
	edges := 0
	for _, b := range []transporttest.Backend{transporttest.Inproc(), transporttest.TCP()} {
		for _, row := range rows {
			for ranks := 1; ranks <= 4; ranks++ {
				t.Run(fmt.Sprintf("%s/%s/ranks=%d", b.Name(), row.name, ranks), func(t *testing.T) {
					ds := shardedDataset(t, row.model.InputDim, row.model.Classes)
					cfg := baseConfig(t, ds, ranks, shuffle.GlobalShuffling())
					cfg.Model = row.model
					cfg.OverlapGrads = row.overlap
					cfg.gradBucketBytes = row.capBytes
					err := b.Run(ranks, func(c *mpi.Comm) error {
						w, err := shardedWorker(c, cfg)
						if err != nil {
							return err
						}
						if c.Rank() == 0 && hitsBucketEdge(w) {
							edges++
						}
						return stepAgainstReference(c, w, cfg, iters)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	if edges == 0 {
		t.Fatal("no row put a chunk boundary on a bucket edge")
	}
}

// shardedDataset is a small dataset of the given shape.
func shardedDataset(t testing.TB, features, classes int) *data.Dataset {
	t.Helper()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "sharded", NumSamples: 64, NumVal: 16, Classes: classes,
		FeatureDim: features, ClassSep: 5, NoiseStd: 1.0, Bytes: 1000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// shardedWorker builds one rank's worker as RunRank would, without training.
func shardedWorker(c *mpi.Comm, cfg Config) (*worker, error) {
	cfg, err := resolveConfig(c, cfg)
	if err != nil {
		return nil, err
	}
	return newWorker(c, cfg, nil, nil)
}

// hitsBucketEdge reports whether an interior chunk boundary of w's group
// coincides with the start of one of its buckets.
func hitsBucketEdge(w *worker) bool {
	m, p := w.comm.GroupSize(), w.plan.NumEl
	for i := 1; i < m; i++ {
		for _, b := range w.plan.Buckets {
			if b.Lo == i*p/m && b.Lo > 0 {
				return true
			}
		}
	}
	return false
}

// stepAgainstReference runs iters training steps on w and on a replicated
// reference, comparing the weights after each.
func stepAgainstReference(c *mpi.Comm, w *worker, cfg Config, iters int) error {
	const lr = 0.05
	batch, features, classes := 8, cfg.Model.InputDim, cfg.Model.Classes
	x := tensor.New(batch, features)
	for i := range x.Data {
		x.Data[i] = float32((i*7+c.Rank()*13)%29)/29 - 0.5
	}
	y := make([]int, batch)
	for i := range y {
		y[i] = (i + c.Rank()) % classes
	}
	ref, err := cfg.Model.Build(cfg.Seed, cfg.Seed+uint64(1000+c.Rank()))
	if err != nil {
		return err
	}
	refOpt := nn.NewSGD(cfg.Momentum, cfg.WeightDecay)
	var refLoss nn.SoftmaxCrossEntropy
	w.lr = lr
	for it := 0; it < iters; it++ {
		w.arena.Reset()
		w.loss.Forward(w.model.Forward(x, true), y)
		w.model.BackwardWithHook(w.loss.Backward(), w.bucketHook)
		w.drainBuckets()

		refLoss.Forward(ref.Forward(x, true), y)
		ref.Backward(refLoss.Backward())
		mpi.Allreduce(c, ref.Grads(), mpi.OpAvg)
		refOpt.Step(ref.Params(), lr)

		got, want := w.model.Weights(), ref.Weights()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return fmt.Errorf("rank %d iteration %d: weight %d is %v, the replicated step gives %v", c.Rank(), it, i, got[i], want[i])
			}
		}
	}
	sgd := w.opt.(*nn.SGD)
	lo, hi := ownChunk(c.GroupRank(), c.GroupSize(), w.plan.NumEl)
	if sgd.StateFloats() != hi-lo {
		return fmt.Errorf("rank %d holds %d moment floats, its chunk has %d", c.Rank(), sgd.StateFloats(), hi-lo)
	}
	return nil
}

// TestShardedMomentsCountOwnChunk reads each rank's
// pls_train_optimizer_state_bytes after a run: under SGD it is the rank's
// chunk of the parameters (the ranks' chunks sum to all of them), under
// LARS every parameter's moments.
func TestShardedMomentsCountOwnChunk(t *testing.T) {
	const ranks = 4
	ds := testDataset(t, 128, 4)
	for _, opt := range []string{"", "lars"} {
		t.Run("opt="+opt, func(t *testing.T) {
			cfg := baseConfig(t, ds, ranks, shuffle.Partial(0.25))
			cfg.Epochs, cfg.Optimizer, cfg.OverlapGrads = 1, opt, true
			cfg.Telemetry = telemetry.NewRegistry()
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			model, err := cfg.Model.Build(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			p := model.NumParams()
			var text bytes.Buffer
			if err := cfg.Telemetry.WritePrometheus(&text); err != nil {
				t.Fatal(err)
			}
			total := 0
			for r := 0; r < ranks; r++ {
				re := regexp.MustCompile(`(?m)^pls_train_optimizer_state_bytes\{rank="` + strconv.Itoa(r) + `"\} (\S+)$`)
				m := re.FindStringSubmatch(text.String())
				if m == nil {
					t.Fatalf("rank %d publishes no pls_train_optimizer_state_bytes", r)
				}
				got, _ := strconv.ParseFloat(m[1], 64)
				lo, hi := ownChunk(r, ranks, p)
				want := hi - lo
				if opt == "lars" {
					want = p
				}
				if int(got) != 4*want {
					t.Errorf("rank %d: optimizer state %v bytes, want %d (%d floats)", r, got, 4*want, want)
				}
				total += int(got) / 4
			}
			if opt == "" && total != p {
				t.Errorf("the ranks hold %d moment floats between them, the model has %d parameters", total, p)
			}
		})
	}
}

// decodeSGDMoments parses an SGD optimizer section (PLSO v1: magic, kind,
// presence, u32 count, then per tensor a u32 length and float32 LE values)
// into one flat slice in parameter order.
func decodeSGDMoments(t *testing.T, sec []byte) []float32 {
	t.Helper()
	if len(sec) < 11 || string(sec[:4]) != "PLSO" || sec[4] != 1 || sec[5] != 1 || sec[6] != 1 {
		t.Fatalf("not a materialized PLSO v1 SGD section: % x", sec[:min(len(sec), 11)])
	}
	count := binary.LittleEndian.Uint32(sec[7:])
	b := sec[11:]
	var flat []float32
	for range count {
		n := binary.LittleEndian.Uint32(b)
		for j := range n {
			flat = append(flat, math.Float32frombits(binary.LittleEndian.Uint32(b[4+4*j:])))
		}
		b = b[4+4*n:]
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the last tensor", len(b))
	}
	return flat
}

// encodeSGDMoments writes flat moments back into PLSO v1, split as lens.
func encodeSGDMoments(flat []float32, lens []int) []byte {
	b := []byte{'P', 'L', 'S', 'O', 1, 1, 1}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(lens)))
	for _, n := range lens {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		for _, f := range flat[:n] {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
		}
		flat = flat[n:]
	}
	return b
}

// TestShardedSnapshotHoldsOwnChunk checks each rank's optimizer section: the
// PLSO v1 layout with the rank's own chunk of moments and zeros elsewhere.
// Then it rewrites the snapshot as a replicated-moments one — every rank
// holding all moments, as snapshots written before the sharding do — and
// requires a resume from it to end bitwise where the resume from the
// sharded snapshot, and the uninterrupted run, end.
func TestShardedSnapshotHoldsOwnChunk(t *testing.T) {
	const ranks, epochs = 4, 4
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, ranks, shuffle.Partial(0.25))
	cfg.OverlapGrads, cfg.gradBucketBytes = true, 512
	cfg.Epochs = epochs
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sharded := t.TempDir()
	first := cfg
	first.Epochs, first.CheckpointDir, first.CheckpointEvery = epochs/2, sharded, epochs/2
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	dir, meta, err := checkpoint.LoadLatest(sharded)
	if err != nil {
		t.Fatal(err)
	}
	var lens []int
	for _, p := range ref.FinalParams {
		lens = append(lens, len(p.W))
	}
	all := make([][]float32, ranks)
	var full []float32
	for r := 0; r < ranks; r++ {
		sections, err := checkpoint.ReadRankFile(checkpoint.RankPath(dir, r))
		if err != nil {
			t.Fatal(err)
		}
		all[r] = decodeSGDMoments(t, sections["optimizer"])
		if full == nil {
			full = make([]float32, len(all[r]))
		}
		lo, hi := ownChunk(r, ranks, len(full))
		nonzero := false
		for i, v := range all[r] {
			if (i < lo || i >= hi) && v != 0 {
				t.Fatalf("rank %d: moment %d = %v lies outside its chunk [%d,%d) and is not zero", r, i, v, lo, hi)
			}
			nonzero = nonzero || v != 0
		}
		if !nonzero {
			t.Fatalf("rank %d: its chunk [%d,%d) holds no moment at all", r, lo, hi)
		}
		copy(full[lo:hi], all[r][lo:hi])
	}

	// The replicated twin: every rank's section holds every moment.
	replicated := t.TempDir()
	rdir := checkpoint.Dir(replicated, meta.NextEpoch)
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		t.Fatal(err)
	}
	rmeta := meta
	rmeta.Ranks = nil
	for r := 0; r < ranks; r++ {
		sections, err := checkpoint.ReadRankFile(checkpoint.RankPath(dir, r))
		if err != nil {
			t.Fatal(err)
		}
		sections["optimizer"] = encodeSGDMoments(full, lens)
		image := checkpoint.EncodeSnapshot(sections)
		path := checkpoint.RankPath(rdir, r)
		if err := checkpoint.WriteTemp(path, image); err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.Commit(path); err != nil {
			t.Fatal(err)
		}
		rmeta.Ranks = append(rmeta.Ranks, checkpoint.RankFile{Rank: r, CRC: checkpoint.CRC(image), Size: int64(len(image))})
	}
	if err := checkpoint.WriteManifest(rdir, rmeta); err != nil {
		t.Fatal(err)
	}

	resume := func(base string) []float32 {
		t.Helper()
		c := cfg
		c.CheckpointDir, c.Resume = base, true
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return flatWeights(res.FinalParams)
	}
	fromSharded, fromReplicated := resume(sharded), resume(replicated)
	requireBitwiseEqual(t, "replicated vs sharded resume", fromReplicated, fromSharded)
	requireBitwiseEqual(t, "sharded resume vs uninterrupted", fromSharded, flatWeights(ref.FinalParams))
}
