package distrun

import (
	"flag"
	"fmt"

	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store/shard"
	"plshuffle/internal/train"
)

// DefaultOptions returns the run options cmd/plsrun starts from.
func DefaultOptions() Options {
	return Options{
		Dataset:     "imagenet-50",
		Model:       "resnet50",
		Strategy:    "partial",
		Q:           0.1,
		GroupEpochs: 1,
		Epochs:      5,
		Batch:       16,
		LR:          0.05,
		Seed:        42,
		OnPeerFail:  "abort",
	}
}

// Bind registers the run options every rank of a world shares onto fs,
// storing straight into o's fields; each flag's default is the field's
// current value. Every rank of a world must be given the same values. Rank,
// World, Rendezvous and Join differ per rank or per world and are left to
// cmd/plsrun.
func (o *Options) Bind(fs *flag.FlagSet) {
	fs.StringVar(&o.Dataset, "dataset", o.Dataset, "paper dataset key (plsrun -list-datasets prints them)")
	fs.StringVar(&o.Model, "model", o.Model, "proxy model name")
	fs.StringVar(&o.Strategy, "strategy", o.Strategy, "global | local | partial | corgi2")
	fs.Float64Var(&o.Q, "q", o.Q, "exchange fraction for -strategy partial")
	fs.BoolVar(&o.AutoQ, "auto-q", o.AutoQ, "with -strategy partial: retune Q online with the closed-loop controller — -q becomes the starting point, and every epoch boundary re-decides from gathered deterministic stats (no hand tuning; two same-seed runs stay bitwise identical)")
	fs.StringVar(&o.DataDir, "data-dir", o.DataDir, "ingested on-disk dataset directory (cmd/plsingest) for -strategy corgi2; replaces -dataset")
	fs.Int64Var(&o.CacheBytes, "cache-bytes", o.CacheBytes, "per-rank node-local cache budget in bytes for -strategy corgi2 (0 = unlimited)")
	fs.IntVar(&o.GroupEpochs, "group-epochs", o.GroupEpochs, "corgi2 epoch-group length: shard assignments reshuffle across ranks every this many epochs")
	fs.IntVar(&o.Epochs, "epochs", o.Epochs, "training epochs")
	fs.IntVar(&o.Batch, "batch", o.Batch, "local mini-batch size")
	fs.Float64Var(&o.LR, "lr", o.LR, "base learning rate")
	fs.Float64Var(&o.Locality, "locality", o.Locality, "partition class-locality in [0,1]")
	fs.BoolVar(&o.LARS, "lars", o.LARS, "use the LARS optimizer")
	fs.BoolVar(&o.WireCompress, "wire-compress", o.WireCompress, "multi-process worlds: compress the large data frames this rank sends on the TCP transport (ranks with it off still decode them)")
	fs.BoolVar(&o.WireDedup, "wire-dedup", o.WireDedup, "deduplicate exchange sample payloads: repeat samples travel as compact ID references (bitwise-identical training, fewer wire bytes)")
	fs.StringVar(&o.SampleEncoding, "sample-encoding", o.SampleEncoding, "exchange sample wire format: fp32 (default) or fp16exact (compact where bitwise lossless, fp32 otherwise)")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "run seed")
	fs.DurationVar(&o.Timeout, "timeout", o.Timeout, "deadline on the whole run: exit non-zero, naming each rank's last completed phase, if it has not finished this long after it started (0 = no deadline)")
	fs.StringVar(&o.OnPeerFail, "on-peer-fail", o.OnPeerFail, "multi-process worlds: policy when a peer rank dies mid-run — abort (fail fast, naming the dead rank) or degrade (the disrupted epoch's exchange resets, the survivors re-form and finish at the configured Q)")
	fs.StringVar(&o.CheckpointDir, "checkpoint-dir", o.CheckpointDir, "directory for atomic epoch-boundary snapshots (empty = checkpointing off)")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", o.CheckpointEvery, "snapshot every Nth epoch boundary (0 = every epoch)")
	fs.BoolVar(&o.Resume, "resume", o.Resume, "restore the newest complete snapshot under -checkpoint-dir before training; the resumed run is bitwise identical to one that never stopped")
	fs.IntVar(&o.MaxWorld, "max-world", o.MaxWorld, "multi-process worlds: elastic capacity — rank slots [world, max-world) stay reserved for mid-run joiners (0 = fixed world)")
	fs.StringVar(&o.TelemetryAddr, "telemetry-addr", o.TelemetryAddr, "BASE host:port of the live telemetry endpoints (/metrics, /trace, /healthz, /debug/pprof); rank r serves on port+r and rank 0 additionally serves /cluster/metrics (empty = telemetry off)")
	fs.StringVar(&o.SaveWeights, "save-weights", o.SaveWeights, "write the trained model to this file (rank 0 writes it)")
}

// Args spells every option Bind registers as a -name=value argument, for a
// launcher to hand its forked ranks: a flag added to Bind is forwarded
// without anyone remembering to.
func (o Options) Args() []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	o.Bind(fs) // o is a copy: the bound defaults are the values to forward
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		args = append(args, "-"+f.Name+"="+f.Value.String())
	})
	return args
}

func (o Options) strategy() (shuffle.Strategy, error) {
	switch o.Strategy {
	case "global":
		return shuffle.GlobalShuffling(), nil
	case "local":
		return shuffle.LocalShuffling(), nil
	case "partial":
		return shuffle.Partial(o.Q), nil
	case "corgi2":
		g := o.GroupEpochs
		if g == 0 {
			g = 1
		}
		s := shuffle.Corgi2Shuffling(g)
		return s, s.Validate()
	default:
		return shuffle.Strategy{}, fmt.Errorf("distrun: unknown strategy %q (want global, local, partial, or corgi2)", o.Strategy)
	}
}

// TrainConfig resolves the options into the training configuration every
// rank of the run shares: the strategy, the dataset (a proxy, or under corgi2
// the ingested store's metadata and validation split — training samples
// stream through the cache tier inside train), the model bound to it, and the
// hyperparameters. Workers stays zero (RunRank and JoinRank default it to the
// world size); Trace and Telemetry are the caller's to attach.
func (o Options) TrainConfig() (train.Config, error) {
	strat, err := o.strategy()
	if err != nil {
		return train.Config{}, err
	}
	var ds *data.Dataset
	if strat.Kind == shuffle.Corgi2 {
		if o.DataDir == "" {
			return train.Config{}, fmt.Errorf("distrun: -strategy corgi2 requires -data-dir (an ingested dataset; see cmd/plsingest)")
		}
		sd, err := shard.OpenDataset(o.DataDir)
		if err != nil {
			return train.Config{}, err
		}
		if ds, err = sd.Proxy(); err != nil {
			return train.Config{}, err
		}
	} else if ds, err = data.LoadProxy(o.Dataset); err != nil {
		return train.Config{}, err
	}
	spec, err := nn.ProxySpec(o.Model)
	if err != nil {
		return train.Config{}, err
	}
	optimizer := ""
	if o.LARS {
		optimizer = "lars"
	}
	return train.Config{
		Strategy:          strat,
		Dataset:           ds,
		Model:             spec.WithData(ds.FeatureDim, ds.Classes),
		Epochs:            o.Epochs,
		BatchSize:         o.Batch,
		BaseLR:            float32(o.LR),
		Momentum:          0.9,
		WeightDecay:       1e-4,
		Optimizer:         optimizer,
		Seed:              o.Seed,
		DataDir:           o.DataDir,
		CacheBytes:        o.CacheBytes,
		PartitionLocality: o.Locality,
		OverlapGrads:      true,
		WireDedup:         o.WireDedup,
		SampleEncoding:    o.SampleEncoding,
		AutoQ:             o.AutoQ,
		OnPeerFail:        o.OnPeerFail,
		CheckpointDir:     o.CheckpointDir,
		CheckpointEvery:   o.CheckpointEvery,
		Resume:            o.Resume,
		Elastic:           o.MaxWorld > o.World || o.Join,
	}, nil
}

// DatasetLabel names the dataset of a resolved configuration in run reports.
func (o Options) DatasetLabel(cfg train.Config) string {
	if cfg.Strategy.Kind == shuffle.Corgi2 {
		return cfg.Dataset.Name + " (ingested " + o.DataDir + ")"
	}
	return o.Dataset
}
