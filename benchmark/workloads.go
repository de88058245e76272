package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store/shard"
	"plshuffle/internal/train"
)

// ranks is the world size of every workload: four goroutine ranks in one
// process over loopback TCP.
const ranks = 4

// workload is one fixed set of inputs. Every field is the same on every
// commit; only -seed changes the generated data.
type workload struct {
	name     string
	n        int   // training samples N
	features int   // float32 features per sample (sample bytes = 4·features)
	hidden   []int // MLP hidden widths, BatchNorm after each
	batch    int   // local mini-batch b
	strategy shuffle.Strategy
	locality float64
	classSep float32 // data.SyntheticSpec.ClassSep: how far apart the class means sit
	epochs   int     // E per run, the same on every commit

	gridSnap       bool   // snap features to multiples of ½ (fp16-exact)
	dedup          bool   // train.Config.WireDedup
	encoding       string // train.Config.SampleEncoding
	compress       bool   // tcp.Config.Compress
	shardSamples   int    // >0: ingest to disk and stream through the cache tier
	cacheBytes     int64  // per-rank cache-tier budget
	checkpointEach bool   // commit a snapshot every epoch
}

const (
	classes    = 16
	valSamples = 1024
)

// The epoch counts are the smallest at which the model has converged on
// every seed, so that a run is short (0.5–9 s on 2 cores) and the speedometer
// reads the machine often; a whole invocation — the set-ups, a warm-up and the
// timed runs — takes 20–32 s. classSep is chosen per shape so that
// final_val_acc lands near, not at, 1 on every seed: a model that has not
// converged varies too much from seed to seed to carry a bound.
// BENCHMARK.json and README.md carry the why of each workload.
var workloads = []workload{
	{name: "compute", n: 32768, features: 64, hidden: []int{512, 512, 512}, batch: 512,
		strategy: shuffle.Partial(0.25), locality: 0.5, classSep: 6, epochs: 2},
	{name: "gradsync", n: 8192, features: 64, hidden: []int{512, 512, 512}, batch: 8,
		strategy: shuffle.GlobalShuffling(), classSep: 6, epochs: 1},
	{name: "exchange_plain", n: 8192, features: 2048, hidden: []int{8}, batch: 128,
		strategy: shuffle.Partial(0.5), classSep: 16, epochs: 5, gridSnap: true},
	{name: "exchange_lean", n: 8192, features: 2048, hidden: []int{8}, batch: 128,
		strategy: shuffle.Partial(0.5), classSep: 16, epochs: 4, gridSnap: true,
		dedup: true, encoding: "fp16exact", compress: true},
	{name: "storage", n: 8192, features: 4096, hidden: []int{8}, batch: 256,
		strategy: shuffle.Corgi2Shuffling(1), classSep: 12, epochs: 10,
		shardSamples: 32, cacheBytes: 8 << 20, checkpointEach: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) sampleBytes() int64 { return 4 * int64(w.features) }

// fairShareBytes is N/M · sample bytes, the denominator of
// peak_storage_ratio.
func (w workload) fairShareBytes() float64 {
	return float64(w.n) / ranks * float64(w.sampleBytes())
}

func (w workload) model() nn.ModelSpec {
	return nn.ModelSpec{Name: w.name, InputDim: w.features, Hidden: w.hidden,
		Classes: classes, BatchNorm: true}
}

// inputs are one seed's generated data: the in-memory dataset and, for the
// storage workload, its ingested on-disk form.
type inputs struct {
	ds      *data.Dataset
	dataDir string        // ingested dataset ("" when the workload trains from memory)
	ingest  time.Duration // time shard.Ingest took
}

// generate builds the workload's inputs from seed inside dir. The same seed
// gives the same bytes.
func (w workload) generate(seed uint64, dir string, sl *spanLog) (*inputs, error) {
	sp := sl.begin(0, "generate", "data", -1, -1)
	defer func() { sl.end(sp, map[string]int64{"bytes": int64(w.n) * w.sampleBytes()}) }()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: w.name, NumSamples: w.n, NumVal: valSamples, Classes: classes,
		FeatureDim: w.features, ClassSep: w.classSep, NoiseStd: 1, Bytes: w.sampleBytes(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if w.gridSnap {
		for _, split := range [][]data.Sample{ds.Train, ds.Val} {
			for i := range split {
				fs := split[i].Features
				for j := range fs {
					fs[j] = float32(math.Round(float64(fs[j])*2) / 2)
				}
				data.QuantizeFeaturesFP16(fs)
			}
		}
	}
	in := &inputs{ds: ds}
	if w.shardSamples > 0 {
		in.dataDir = filepath.Join(dir, "dataset")
		if err := os.RemoveAll(in.dataDir); err != nil {
			return nil, err
		}
		if in.ingest, err = ingest(in.dataDir, ds, w.shardSamples, sl); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// ingest is shard.Ingest, timed and traced.
func ingest(dir string, ds *data.Dataset, perShard int, sl *spanLog) (time.Duration, error) {
	sp := sl.begin(0, "Ingest", "store", -1, -1)
	t0 := time.Now()
	man, err := shard.Ingest(dir, ds, perShard)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	var bytes int64
	for _, b := range man.ShardFileBytes {
		bytes += b
	}
	sl.end(sp, map[string]int64{"bytes": bytes, "shards": int64(man.NumShards)})
	return d, nil
}

// config is the train.Config every rank of a run receives. ckptDir is used
// only by workloads that checkpoint.
func (w workload) config(in *inputs, seed uint64, epochs int, ckptDir string) (train.Config, error) {
	cfg := train.Config{
		Workers:           ranks,
		Strategy:          w.strategy,
		Dataset:           in.ds,
		Model:             w.model(),
		Epochs:            epochs,
		BatchSize:         w.batch,
		BaseLR:            0.05,
		Momentum:          0.9,
		WeightDecay:       1e-4,
		Seed:              seed,
		PartitionLocality: w.locality,
		OverlapGrads:      true,
		WireDedup:         w.dedup,
		SampleEncoding:    w.encoding,
	}
	if w.strategy.Kind == shuffle.Corgi2 {
		// The distrun path: training samples stream from the shard store; the
		// proxy carries the metadata and the validation split.
		sd, err := shard.OpenDataset(in.dataDir)
		if err != nil {
			return cfg, err
		}
		if cfg.Dataset, err = sd.Proxy(); err != nil {
			return cfg, err
		}
		cfg.DataDir = in.dataDir
		cfg.CacheBytes = w.cacheBytes
	}
	if w.checkpointEach {
		cfg.CheckpointDir = ckptDir
		cfg.CheckpointEvery = 1
	}
	return cfg, nil
}

// localTwin is the same workload with LocalShuffling() from memory: no
// exchange, no shard store, no checkpoint, plain wire. The gap between a
// workload and its twin is what the shuffle (or the storage tier) costs.
func (w workload) localTwin() workload {
	t := w
	t.name = w.name + "/local-twin"
	t.strategy = shuffle.LocalShuffling()
	t.dedup, t.encoding, t.compress = false, "", false
	t.shardSamples, t.cacheBytes, t.checkpointEach = 0, 0, false
	return t
}

// plainTwin is the lean workload with the exchange_plain wire settings; its
// trained weights must be bitwise identical to lean's.
func (w workload) plainTwin() workload {
	t := w
	t.name = w.name + "/plain-twin"
	t.dedup, t.encoding, t.compress = false, "", false
	return t
}
