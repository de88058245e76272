package train

import (
	"fmt"

	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/telemetry"
	"plshuffle/internal/trace"
)

// DefaultWireDedupBudget is the per-directed-pair byte budget the exchange
// dedup caches use when Config.WireDedup is on. 8 MiB per pair keeps a
// 32-rank world under ~0.5 GiB of cache per rank (at most 2·(Workers−1)·budget:
// one payload-retaining segment per source and one ID-only mirror per
// destination) while holding several epochs' worth of typical exchange
// traffic.
const DefaultWireDedupBudget = 8 << 20

// Config describes one training run.
type Config struct {
	Workers  int
	Strategy shuffle.Strategy
	Dataset  *data.Dataset
	Model    nn.ModelSpec // input dim / classes already bound (WithData)

	Epochs    int
	BatchSize int // local mini-batch b per worker

	BaseLR      float32
	Schedule    nn.Schedule // nil = Constant{BaseLR}
	Momentum    float32
	WeightDecay float32
	// Optimizer selects the update rule by name: "" or "sgd", or "lars", the
	// large-batch rule the paper's biggest configurations require (per
	// Mikami et al.).
	Optimizer string

	// DataDir points at an ingested on-disk dataset (cmd/plsingest) for the
	// Corgi2 strategy, which streams training samples through the storage
	// hierarchy instead of holding them in memory. With Corgi2, Dataset may
	// be nil — it is derived from the dataset's manifest and validation
	// shard.
	DataDir string
	// CacheBytes bounds the Corgi2 node-local cache tier per rank
	// (0 = unlimited). It must hold at least the dataset's largest shard.
	CacheBytes int64

	Seed uint64
	// PartitionLocality biases the initial partition toward class-contiguous
	// shards (0 = the paper's uniform random permutation, 1 = fully
	// class-sorted). It calibrates shard-statistics divergence so the
	// Gaussian proxies match the divergence of small shards of real image
	// data; see shuffle.PartitionWithLocality.
	PartitionLocality float64
	// WireDedup enables the exchange deduplication protocol (DESIGN.md §13):
	// each directed rank pair maintains mirrored bounded caches of the
	// samples that crossed it, and a sample the sender can prove the
	// receiver still holds travels as a compact ID reference instead of a
	// payload. Training input is bitwise identical either way; only the
	// wire volume changes. Applies to the partial-local exchange only.
	WireDedup bool
	// SampleEncoding selects the exchange sample wire format: "" or "fp32"
	// (the legacy bit-exact encoding) or "fp16exact" (compact half-precision
	// entries only for samples whose features are bitwise-losslessly
	// representable — exact by construction).
	SampleEncoding string
	// SyncBatchNormStats averages batch-norm running statistics across
	// workers after every epoch. Standard data-parallel training does NOT
	// do this — which is exactly why local shuffling degrades (Section
	// IV-A.1). Enabling it isolates that mechanism: with synchronized
	// statistics the LS-vs-GS gap shrinks (see the norm-ablation
	// experiment).
	SyncBatchNormStats bool
	// FullSyncBatchNorm computes batch-norm statistics over the GLOBAL
	// mini-batch every iteration (PyTorch SyncBatchNorm): forward and
	// backward reductions cross workers. This removes the per-shard batch
	// statistics entirely and — as the mechanism experiments show — it is
	// the train-time statistics, not the running estimates, that cause
	// local shuffling's accuracy loss. It costs two extra allreduces per
	// BatchNorm layer per iteration.
	FullSyncBatchNorm bool
	// OverlapGrads enables the bucketed, non-blocking gradient all-reduce
	// that pipelines with the backward pass (DESIGN.md §9): parameters are
	// partitioned into size-capped buckets in reverse-layer order, and each
	// bucket's ring all-reduce launches the moment its last layer's
	// gradients are written — while earlier layers are still computing
	// backward. False selects the same path with a single bucket spanning
	// the model — one ring launched when backward ends, the serial A/B
	// baseline (-overlap-grads=false on the CLIs); the resulting weights are
	// bitwise identical.
	OverlapGrads bool
	// WarmStart, if non-nil, initializes every worker's weights from these
	// parameters instead of random init (Fig 8 downstream training and the
	// pretrained ResNet50 of Fig 5d). Lengths must match the built model's.
	WarmStart []nn.Param
	// Trace, if non-nil, receives one event per (rank, epoch, phase) with
	// duration and byte volume — the Figure 10 instrumentation.
	Trace *trace.Recorder
	// Telemetry, if non-nil, registers this rank's live metrics (DESIGN.md
	// §11): training progress and per-phase time, the exchange scheduler's
	// EffectiveQ/DegradedSlots and cumulative wire volume, the runtime's
	// collective sequence and overlap depth, and the transport's byte/frame
	// counters. The counters themselves always run (they are what EpochStats
	// is derived from); Telemetry only makes them scrapeable. The hot path
	// only touches preallocated atomic words — the steady-state training
	// iteration stays 0 allocs/op, and the trained weights are bitwise
	// identical either way.
	Telemetry *telemetry.Registry
	// OnPeerFail selects the policy when the transport reports a peer dead
	// mid-run (DESIGN.md §10). "abort" (or "") propagates the typed
	// transport.PeerError and fails the rank — the launcher reports it and
	// exits non-zero. "degrade" keeps the survivors training: the exchange
	// scheduler forfeits the dead rank's slots (reduced effective Q), the
	// collective group shrinks over the survivors (mpi.Shrink), weights are
	// re-synchronized from the lowest surviving rank, and the epoch in
	// flight when the failure struck is completed without further gradient
	// steps.
	OnPeerFail string

	// CheckpointDir, when non-empty, enables deterministic checkpointing
	// (DESIGN.md §15): every CheckpointEvery epochs each rank durably writes
	// an atomic snapshot of its replica state — weights including batch-norm
	// running statistics, optimizer moments, dropout RNG cursors, and the
	// stored sample IDs — and the group root commits a manifest binding every
	// member's checksum. A run restarted with Resume continues bitwise
	// identically to one that was never interrupted.
	CheckpointDir string
	// CheckpointEvery is the snapshot period in epochs (0 = every epoch).
	CheckpointEvery int
	// Resume restores the newest complete snapshot under CheckpointDir
	// before training starts. The resuming world must have either the
	// snapshot's full world size or exactly its live-group size (degraded
	// resume: new rank i adopts state from Group[i]'s snapshot).
	Resume bool
	// Elastic polls for rendezvoused joiners at every epoch boundary and
	// grows the collective group mid-run (DESIGN.md §15): the group root
	// broadcasts the admitted joiners, every member Grows, each joiner
	// adopts the current weights, and the stored samples rebalance over the
	// new membership. A fresh rank enters a running world through JoinRank.
	Elastic bool

	// AutoQ enables the closed-loop shuffle controller (DESIGN.md §16):
	// after every epoch the group root gathers each rank's deterministic
	// observations (label-exposure skew and the modeled exchange/compute
	// cost ratio), steps the pure decision function analysis.DecideQ, and
	// broadcasts the new exchange fraction before the next Scheduling.
	// Strategy.Q becomes the starting point of the trajectory rather than a
	// fixed constant; the trajectory, start included, stays within
	// analysis.DefaultQPolicy's [0.05, 0.5]. PartialLocal only.
	AutoQ bool

	// qSchedule, when non-empty, pins epoch e's exchange fraction to
	// qSchedule[min(e, len-1)] — the open-loop replay of a recorded
	// controller trajectory that tests hold an AutoQ run against (same
	// weights, bit for bit). Set without AutoQ, under PartialLocal.
	qSchedule []float64

	// gradBucketBytes, when positive, caps each gradient bucket under
	// OverlapGrads in place of nn.DefaultGradBucketBytes; tests use small
	// caps to get several buckets from a small model.
	gradBucketBytes int

	// testIterHook, when non-nil, runs at the top of every training
	// iteration (after the epoch's exchange is scheduled). Tests use it to
	// inject deterministic faults — e.g. kill this rank's transport at a
	// chosen (epoch, iteration). A non-nil return unwinds the rank with
	// that error.
	testIterHook func(epoch, iter int) error
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("train: Workers must be positive, got %d", c.Workers)
	}
	if c.Strategy.Kind == shuffle.Corgi2 {
		// Corgi2 streams training samples from the on-disk shard store; the
		// in-memory training split stays empty.
		if c.DataDir == "" {
			return fmt.Errorf("train: corgi2 needs DataDir (an ingested dataset; see cmd/plsingest)")
		}
		if c.OnPeerFail == "degrade" {
			return fmt.Errorf("train: OnPeerFail=degrade is not supported with corgi2 (shard assignments are static within an epoch group)")
		}
		if c.PartitionLocality != 0 {
			return fmt.Errorf("train: PartitionLocality does not apply to corgi2 (ingest fixes the shard layout)")
		}
	} else {
		if c.Dataset == nil || len(c.Dataset.Train) == 0 {
			return fmt.Errorf("train: empty dataset")
		}
		if len(c.Dataset.Train) < c.Workers {
			return fmt.Errorf("train: %d samples over %d workers", len(c.Dataset.Train), c.Workers)
		}
		for i, s := range c.Dataset.Train {
			if s.ID != i {
				return fmt.Errorf("train: training sample %d has ID %d (IDs must index the training split)", i, s.ID)
			}
		}
	}
	if c.Epochs <= 0 || c.BatchSize <= 0 {
		return fmt.Errorf("train: Epochs and BatchSize must be positive (%d, %d)", c.Epochs, c.BatchSize)
	}
	if c.Epochs >= maxEpochs {
		return fmt.Errorf("train: Epochs must be below %d (the point-to-point tag layout keys on the epoch), got %d", maxEpochs, c.Epochs)
	}
	if c.BaseLR <= 0 {
		return fmt.Errorf("train: BaseLR must be positive, got %v", c.BaseLR)
	}
	if err := c.Strategy.Validate(); err != nil {
		return err
	}
	switch c.Optimizer {
	case "", "sgd", "lars":
	default:
		return fmt.Errorf("train: unknown optimizer %q (want sgd or lars)", c.Optimizer)
	}
	switch c.OnPeerFail {
	case "", "abort", "degrade":
	default:
		return fmt.Errorf("train: unknown OnPeerFail policy %q (want abort or degrade)", c.OnPeerFail)
	}
	if _, err := data.ParseEncoding(c.SampleEncoding); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("train: CheckpointEvery must be non-negative, got %d", c.CheckpointEvery)
	}
	if c.Resume && c.CheckpointDir == "" {
		return fmt.Errorf("train: Resume requires CheckpointDir")
	}
	if c.AutoQ {
		if c.Strategy.Kind != shuffle.PartialLocal {
			return fmt.Errorf("train: AutoQ retunes the exchange fraction and needs strategy pls")
		}
		if c.Workers < 2 {
			return fmt.Errorf("train: AutoQ needs at least 2 workers, got %d", c.Workers)
		}
	}
	return c.Model.Validate()
}
