// Package train runs distributed synchronous SGD over the message-passing
// runtime with any of the paper's shuffling strategies. One goroutine plays
// each worker: it holds a model replica (identical initial weights via a
// shared seed, as Section IV-A assumes), draws batches according to the
// strategy, averages gradients with a ring allreduce every iteration
// (Equation 1), and — for partial local shuffling — drives the exchange
// scheduler chunk-by-chunk so the sample traffic interleaves with the
// forward/backward phases (Figure 4).
//
// By default batch-norm statistics are per-worker, matching standard
// data-parallel practice; this is the mechanism Section IV-A.1 identifies
// as the main source of accuracy loss under local shuffling, and keeping
// it faithful is what lets the accuracy experiments reproduce the paper's
// shapes. The FullSyncBatchNorm and SyncBatchNormStats options switch the
// statistics handling to isolate that mechanism (see the norm-ablation
// experiment).
package train

import (
	"fmt"
	"runtime"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/shuffle/control"
	"plshuffle/internal/store"
	"plshuffle/internal/store/cache"
	"plshuffle/internal/store/shard"
	"plshuffle/internal/telemetry"
	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
	"plshuffle/internal/trace"
	"plshuffle/internal/transport"
)

// DefaultWireDedupBudget is the per-directed-pair byte budget the exchange
// dedup caches use when Config.WireDedup is on and no explicit budget is
// given. 8 MiB per pair keeps a 32-rank world under ~0.5 GiB of cache per
// rank while holding several epochs' worth of typical exchange traffic.
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
	UseLARS     bool
	LARSEta     float32 // 0 = default 0.01
	// Optimizer selects the update rule by name: "" or "sgd", "lars" (same
	// as UseLARS), or "lamb". The large-batch optimizers are what the
	// paper's biggest configurations require (LARS per Mikami et al.).
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
	// ShardStore, if non-nil, is the already-open ingested dataset to use
	// instead of opening DataDir — how tests and benchmarks inject PFS
	// throttling (shard.Dataset.SetPFSOptions).
	ShardStore *shard.Dataset

	Seed uint64
	// PartitionLocality biases the initial partition toward class-contiguous
	// shards (0 = the paper's uniform random permutation, 1 = fully
	// class-sorted). It calibrates shard-statistics divergence so the
	// Gaussian proxies match the divergence of small shards of real image
	// data; see shuffle.PartitionWithLocality.
	PartitionLocality float64
	// LocalCapacityBytes bounds each worker's storage area (0 = unlimited);
	// exceeding it fails the run, reproducing the feasibility constraints.
	LocalCapacityBytes int64
	// ExchangeGroupSize, when non-zero, uses the hierarchical two-level
	// exchange (Section V-F) with groups of that many workers; it must
	// divide Workers.
	ExchangeGroupSize int
	// WireDedup enables the exchange deduplication protocol (DESIGN.md §13):
	// each directed rank pair maintains mirrored bounded caches of the
	// samples that crossed it, and a sample the sender can prove the
	// receiver still holds travels as a compact ID reference instead of a
	// payload. Training input is bitwise identical either way; only the
	// wire volume changes. Applies to the partial-local exchange only.
	WireDedup bool
	// WireDedupBudget bounds each directed pair's dedup cache in bytes
	// (0 = DefaultWireDedupBudget). Memory cost per rank is at most
	// 2·(Workers−1)·budget: one payload-retaining segment per source and
	// one ID-only mirror per destination.
	WireDedupBudget int64
	// SampleEncoding selects the exchange sample wire format: "" or "fp32"
	// (the legacy bit-exact encoding), "fp16exact" (compact half-precision
	// entries only for samples whose features are bitwise-losslessly
	// representable — exact by construction), or "fp16" (lossy round-to-
	// nearest-even half-precision quantization of every feature).
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
	// backward. The resulting weights are bitwise identical to the serial
	// flat path (false), which is kept as the A/B baseline
	// (-overlap-grads=false on the CLIs).
	OverlapGrads bool
	// GradBucketBytes caps each gradient bucket's size in bytes
	// (0 = nn.DefaultGradBucketBytes). Only meaningful with OverlapGrads.
	GradBucketBytes int
	// ImportanceSampling enables the Section IV-B extension: per-sample
	// losses weight both the local iteration order (hard samples first)
	// and the selection of samples pushed into the global exchange (hard
	// samples circulate between workers).
	ImportanceSampling bool
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
	// counters. The hot path only touches preallocated atomic words — the
	// steady-state training iteration stays 0 allocs/op with telemetry on,
	// and the trained weights are bitwise identical either way.
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
	// broadcasts the new exchange fraction on a reserved control tag before
	// the next Scheduling. Strategy.Q becomes the starting point of the
	// trajectory rather than a fixed constant. PartialLocal only.
	AutoQ bool
	// AutoQMin / AutoQMax clamp the controller's trajectory (0,0 = the
	// default policy clamps [0.05, 0.5]). Both must lie in [0,1] with
	// AutoQMin ≤ AutoQMax.
	AutoQMin, AutoQMax float64
	// QSchedule, when non-empty, pins epoch e's exchange fraction to
	// QSchedule[min(e, len-1)] — a deterministic open-loop replay of a
	// recorded controller trajectory (the bitwise acceptance harness:
	// an AutoQ run and a QSchedule replay of its trajectory must produce
	// crc32c-identical weights). Mutually exclusive with AutoQ;
	// PartialLocal only.
	QSchedule []float64

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
		if c.DataDir == "" && c.ShardStore == nil {
			return fmt.Errorf("train: corgi2 needs DataDir (an ingested dataset; see cmd/plsingest) or ShardStore")
		}
		if c.ImportanceSampling {
			return fmt.Errorf("train: ImportanceSampling is not supported with corgi2 (the epoch order is fixed by the shard plan)")
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
	}
	if c.Epochs <= 0 || c.BatchSize <= 0 {
		return fmt.Errorf("train: Epochs and BatchSize must be positive (%d, %d)", c.Epochs, c.BatchSize)
	}
	if c.BaseLR <= 0 {
		return fmt.Errorf("train: BaseLR must be positive, got %v", c.BaseLR)
	}
	if err := c.Strategy.Validate(); err != nil {
		return err
	}
	switch c.Optimizer {
	case "", "sgd", "lars", "lamb":
	default:
		return fmt.Errorf("train: unknown optimizer %q (want sgd, lars, or lamb)", c.Optimizer)
	}
	if c.GradBucketBytes < 0 {
		return fmt.Errorf("train: GradBucketBytes must be non-negative, got %d", c.GradBucketBytes)
	}
	switch c.OnPeerFail {
	case "", "abort", "degrade":
	default:
		return fmt.Errorf("train: unknown OnPeerFail policy %q (want abort or degrade)", c.OnPeerFail)
	}
	if _, err := data.ParseEncoding(c.SampleEncoding); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if c.WireDedupBudget < 0 {
		return fmt.Errorf("train: WireDedupBudget must be non-negative, got %d", c.WireDedupBudget)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("train: CheckpointEvery must be non-negative, got %d", c.CheckpointEvery)
	}
	if c.Resume && c.CheckpointDir == "" {
		return fmt.Errorf("train: Resume requires CheckpointDir")
	}
	if c.AutoQ || len(c.QSchedule) > 0 {
		if c.Strategy.Kind != shuffle.PartialLocal {
			return fmt.Errorf("train: AutoQ/QSchedule retune the exchange fraction and need strategy pls")
		}
		if c.AutoQ && len(c.QSchedule) > 0 {
			return fmt.Errorf("train: AutoQ and QSchedule are mutually exclusive (closed loop vs open-loop replay)")
		}
	}
	if c.AutoQMin < 0 || c.AutoQMax > 1 || c.AutoQMin > c.AutoQMax {
		return fmt.Errorf("train: AutoQ clamps [%v, %v] out of order or out of [0,1]", c.AutoQMin, c.AutoQMax)
	}
	for i, q := range c.QSchedule {
		if q < 0 || q > 1 {
			return fmt.Errorf("train: QSchedule[%d] = %v out of [0,1]", i, q)
		}
	}
	return c.Model.Validate()
}

// EpochStats records one epoch's outcome and phase accounting.
type EpochStats struct {
	Epoch     int
	TrainLoss float64 // mean loss across workers and iterations
	ValAcc    float64 // top-1 validation accuracy (sharded evaluation)

	// Simulated byte volumes (per worker, using Sample.Bytes).
	LocalReadBytes int64
	PFSReadBytes   int64
	ExchangeBytes  int64
	// ExchangeWireBytes is the real number of bytes that crossed the network
	// during this epoch's exchange phases (frame headers included). It is
	// zero on the inproc backend, whose Stats report Wire=false; over TCP it
	// is what the trace's PhaseExchange events carry.
	ExchangeWireBytes int64
	// GradWireBytes is the real number of bytes the gradient all-reduce
	// moved over the network this epoch (sent + received, exact frame sizes
	// per bucket — or per flat ring segment on the serial path — mirroring
	// ExchangeWireBytes). Zero on the inproc backend. Raw transport counter
	// deltas cannot attribute this traffic once the bucket rings overlap
	// with backward compute; the collective engine accounts it at the frame
	// level instead.
	GradWireBytes int64

	// DedupHits counts exchange samples this epoch that traveled as compact
	// ID references instead of payloads (WireDedup), and DedupBytesSaved is
	// the exact wire volume those references elided (hypothetical full-batch
	// frame size minus the metered ref + residual frames).
	DedupHits       int
	DedupBytesSaved int64

	// Wall-clock phase times on this process (for the testing.B benches;
	// the paper-scale times come from internal/perfmodel).
	IOTime, ExchangeTime, FWBWTime, GEWUTime time.Duration
	// DegradedSlots counts the exchange slots this epoch forfeited because
	// their partner rank was dead (send slots whose destination died plus
	// receive slots whose sender died). Zero in a healthy run.
	DegradedSlots int
	// EffectiveQ is the shuffling fraction the epoch actually realized:
	// Q scaled by the live share of the exchange slots. Equal to the
	// configured Q while every peer is alive; meaningful only for the
	// partial-local strategy (zero otherwise).
	EffectiveQ float64
	// ControllerQ is the exchange fraction this epoch actually planned with
	// — the controller's (or QSchedule's) trajectory, scrape-able live as
	// pls_controller_q. Zero when neither AutoQ nor QSchedule is in force.
	// ControllerReason is the canonical label of the decision that set it
	// ("hold", "raise-skew", "raise-clamp", "lower-hidden", "lower-clamp",
	// or "schedule" for open-loop replay).
	ControllerQ      float64
	ControllerReason string
	// Disrupted marks the epoch during which a peer failure unwound this
	// rank's collectives in degrade mode: its remaining gradient steps
	// were abandoned while the survivors re-formed the group, and its
	// ValAcc was not measured. Skipped marks an epoch the recovery jumped
	// over entirely to keep survivors aligned (possible when the failure
	// lands exactly on an epoch boundary).
	Disrupted, Skipped bool

	// GEWUWaitTime is the EXPOSED portion of the gradient exchange: time
	// the rank's main goroutine spent blocked waiting for all-reduce
	// results (the whole ring on the flat path; only the drain waits on the
	// overlapped path). GEWUCommTime is the TOTAL wall-clock the gradient
	// all-reduce spent in flight (sum over buckets of launch→completion).
	// 1 − GEWUWaitTime/GEWUCommTime is the fraction of gradient
	// communication hidden behind backward compute.
	GEWUWaitTime, GEWUCommTime time.Duration
}

// Result aggregates a run.
type Result struct {
	Strategy    shuffle.Strategy
	Epochs      []EpochStats
	FinalValAcc float64
	BestValAcc  float64
	// PeakStorageBytes is the maximum over workers of the storage
	// high-water mark — bounded by (1+Q)·N/M·sampleBytes for PLS.
	PeakStorageBytes int64
	// FinalParams are rank 0's weights after training (for downstream
	// fine-tuning in the Fig 8 experiment).
	FinalParams []nn.Param
	// FinalModel is rank 0's trained replica, including batch-norm running
	// statistics — what a checkpoint saves (nn.SaveWeights).
	FinalModel *nn.Sequential
}

// Run executes the configured training over the in-process runtime and
// returns aggregated statistics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Workers
	perRank := make([]*RankResult, m)
	err := mpi.Run(m, func(c *mpi.Comm) error {
		rr, err := RunRank(c, cfg)
		if err != nil {
			return err
		}
		perRank[c.Rank()] = rr
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Strategy: cfg.Strategy, Epochs: perRank[0].Epochs,
		FinalParams: perRank[0].FinalParams, FinalModel: perRank[0].FinalModel}
	for _, rr := range perRank {
		if rr.PeakStorageBytes > res.PeakStorageBytes {
			res.PeakStorageBytes = rr.PeakStorageBytes
		}
	}
	for _, e := range res.Epochs {
		if e.ValAcc > res.BestValAcc {
			res.BestValAcc = e.ValAcc
		}
	}
	if len(res.Epochs) > 0 {
		res.FinalValAcc = res.Epochs[len(res.Epochs)-1].ValAcc
	}
	return res, nil
}

// RankResult is one rank's outcome of a training run.
type RankResult struct {
	Epochs           []EpochStats
	PeakStorageBytes int64
	FinalParams      []nn.Param
	FinalModel       *nn.Sequential
	// FinalLocalSamples is the number of samples in this rank's storage area
	// after the last epoch (0 for GS, which streams from the PFS). The
	// distributed launcher gathers it to check the N/M balance invariant.
	FinalLocalSamples int
	// FinalLocalIDs is the sorted list of sample IDs in this rank's storage
	// area after the last epoch (nil for GS). The chaos tests use it to
	// prove sample conservation across survivors after a peer death: no ID
	// held twice, every surviving ID in range.
	FinalLocalIDs []int
	// Cache is the Corgi2 cache tier's final counters (nil for the other
	// strategies).
	Cache *cache.Stats
}

// RunRank executes one rank's share of the configured training on an
// already-connected communicator — the entry point for distributed worlds
// where each rank is its own OS process (cmd/plsd). Every rank must pass an
// identical Config: the initial partition is derived deterministically from
// the seed, so no rank needs to see another's memory. cfg.Workers may be
// zero (it defaults to the communicator's world size) but must otherwise
// match it.
func RunRank(c *mpi.Comm, cfg Config) (*RankResult, error) {
	if cfg.Workers == 0 {
		cfg.Workers = c.Size()
	}
	if cfg.Workers != c.Size() {
		return nil, fmt.Errorf("train: cfg.Workers = %d but world size is %d", cfg.Workers, c.Size())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg, sched, parts, pfs, err := prepareRank(cfg)
	if err != nil {
		return nil, err
	}
	var rs *resumeState
	if cfg.Resume {
		if rs, err = loadResume(c, cfg); err != nil {
			return nil, err
		}
	}
	w, err := newWorker(c, cfg, sched, parts, pfs, rs)
	if err != nil {
		return nil, err
	}
	if w.tier != nil {
		defer w.tier.Close()
	}
	return w.run()
}

// prepareRank resolves the derived run inputs every entry point (RunRank,
// JoinRank) shares: the Corgi2 shard store and proxy dataset, the LR
// schedule, the initial partition of the local-family strategies, and the
// PFS view.
func prepareRank(cfg Config) (Config, nn.Schedule, [][]int, *store.PFS, error) {
	if cfg.Strategy.Kind == shuffle.Corgi2 {
		if cfg.ShardStore == nil {
			sd, err := shard.OpenDataset(cfg.DataDir)
			if err != nil {
				return cfg, nil, nil, nil, err
			}
			cfg.ShardStore = sd
		}
		if cfg.Dataset == nil {
			ds, err := cfg.ShardStore.Proxy()
			if err != nil {
				return cfg, nil, nil, nil, err
			}
			cfg.Dataset = ds
		}
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = nn.Constant{Base: cfg.BaseLR}
	}

	// Initial partition for the local-family strategies — deterministic in
	// (n, Workers, Seed), hence identical across processes. Corgi2 assigns
	// shards, not samples, and re-derives the assignment per epoch group.
	var parts [][]int
	if cfg.Strategy.Kind != shuffle.Global && cfg.Strategy.Kind != shuffle.Corgi2 {
		n := len(cfg.Dataset.Train)
		var err error
		if cfg.PartitionLocality > 0 {
			labels := make([]int, n)
			for i, s := range cfg.Dataset.Train {
				labels[i] = s.Label
			}
			parts, err = shuffle.PartitionWithLocality(labels, cfg.Workers, cfg.PartitionLocality, cfg.Seed)
		} else {
			parts, err = shuffle.Partition(n, cfg.Workers, cfg.Seed)
		}
		if err != nil {
			return cfg, nil, nil, nil, err
		}
	}
	return cfg, sched, parts, store.NewPFS(cfg.Dataset.Train), nil
}

// run trains and assembles the rank's result — the shared tail of RunRank
// and JoinRank.
func (w *worker) run() (*RankResult, error) {
	stats, err := w.train()
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", w.comm.Rank(), err)
	}
	rr := &RankResult{Epochs: stats, FinalParams: w.model.Params(), FinalModel: w.model}
	if w.local != nil {
		rr.PeakStorageBytes = w.local.Peak()
		rr.FinalLocalIDs = w.local.IDs()
		rr.FinalLocalSamples = len(rr.FinalLocalIDs)
	}
	if w.tier != nil {
		st := w.tier.Stats()
		rr.PeakStorageBytes = st.PeakBytes
		rr.Cache = &st
	}
	return rr, nil
}

// worker is one rank's training state.
type worker struct {
	cfg    Config
	sched  nn.Schedule
	comm   *mpi.Comm
	model  *nn.Sequential
	params []nn.Param
	opt    nn.Optimizer
	loss   nn.SoftmaxCrossEntropy

	local     *store.Local       // LS/PLS storage area
	exchanger *shuffle.Scheduler // PLS only
	pfs       *store.PFS

	// Corgi2 state: the node-local cache tier over the shard store, the
	// epoch's open sample stream, and the current epoch group's shard
	// assignment. corgiWindow is the online-shuffle mixing radius in shards
	// (sized so two windows fit the cache budget: one pinned, one
	// prefetching); pfsAccounted snapshots the tier's cumulative PFS bytes
	// so each epoch records only its own delta.
	tier          *cache.Tier
	stream        *cache.EpochStream
	assigned      []int
	assignedGroup int
	corgiWindow   int
	corgiMinLocal int
	pfsAccounted  int64

	xBuf *tensor.Matrix
	yBuf []int

	// arena is this worker's step arena (DESIGN.md §14): every layer and
	// loss workspace for one forward+backward pass is bump-allocated from
	// it and reclaimed wholesale by the Reset at the top of the next
	// iteration — the steady-state training step does zero heap
	// allocation. valBuf is the arena-backed eval input batch.
	arena  *arena.Arena
	valBuf *tensor.Matrix

	// Overlapped gradient sync state (cfg.OverlapGrads; DESIGN.md §9).
	// plan partitions the parameters into reverse-layer buckets;
	// bucketBounds[i] is bucket i's ring-chunk partition — the global flat
	// partition clamped to the bucket's range, precomputed once so the
	// steady state allocates nothing and every element keeps the flat
	// path's reduction order (bitwise-identical results). bucketReqs holds
	// the in-flight requests, indexed by bucket (== launch order);
	// bucketHook is the per-layer Backward completion hook, bound once so
	// the steady state does not re-create the method value.
	plan         *nn.BucketPlan
	bucketBounds [][]int
	bucketReqs   []*mpi.CollRequest
	bucketHook   func(layer int)

	// lossByID holds the latest per-sample loss, the importance weight of
	// the ImportanceSampling extension.
	lossByID map[int]float64

	// tm is the rank's live-metric bundle (nil when cfg.Telemetry is nil).
	// Hot-path updates are single atomic adds on its fields; all naming and
	// labeling happened at registration (registerTelemetry).
	tm *telemetry.TrainMetrics

	// Fault-tolerance and elasticity state (DESIGN.md §10, §15).
	// exchEpoch is the epoch whose exchange is currently open (-1 when no
	// Scheduling…CleanLocalStorage window is in flight) — the recovery path
	// uses it to decide whether the disrupted epoch's exchange must be
	// completed or abandoned. generation counts group re-formations (shrinks
	// AND grows); it seeds the deterministic collective-sequence realignment
	// every member computes without communicating, and it is persisted in
	// checkpoints so a resumed world keeps counting from where it left off.
	exchEpoch  int
	generation int
	// startEpoch is the first epoch this rank trains — non-zero after a
	// resume (the snapshot's NextEpoch) or a mid-run join (the epoch the
	// admission message named).
	startEpoch int
	// joinedEpoch is the epoch this rank was admitted at (-1 for founding
	// and resumed ranks). The joiner skips its own admission round for that
	// epoch: the members drained the join queue in the very round that
	// admitted it, so a fresh broadcast would have no counterpart.
	joinedEpoch int
	// shortData marks a world whose stores may hold fewer than N/M samples
	// (resumed from a degraded snapshot: the dead ranks' unexchanged samples
	// are gone). Per-epoch iteration counts then come from a group-min over
	// the actual stores instead of the static N/M floor. The root's
	// admission message propagates the flag to joiners so every member runs
	// the same collectives.
	shortData bool

	// Closed-loop controller state (DESIGN.md §16). ctrl owns the Q
	// trajectory (nil unless cfg.AutoQ); every rank holds one so survivors
	// and joiners can adopt the running Q without re-deriving it, but only
	// the group root Decides. ctrlQ/ctrlReason mirror the fraction the next
	// Scheduling will plan with and the decision that set it (QSchedule
	// replays stamp reason "schedule"). globalHist is the dataset's global
	// label distribution, fixed at construction; obsSkew/obsComm are the
	// epoch's deterministic observations (label-exposure total variation
	// and the modeled exchange/compute cost ratio) the control gather
	// ships to the root. cm is the controller's telemetry bundle.
	ctrl             *control.Controller
	ctrlQ            float64
	ctrlReason       string
	globalHist       []float64
	obsSkew, obsComm float64
	cm               *telemetry.ControllerMetrics
}

func newWorker(c *mpi.Comm, cfg Config, sched nn.Schedule, parts [][]int, pfs *store.PFS, rs *resumeState) (*worker, error) {
	// Same init seed on every rank: identical starting weights. Dropout
	// streams differ per rank.
	model, err := cfg.Model.Build(cfg.Seed, cfg.Seed+uint64(1000+c.Rank()))
	if err != nil {
		return nil, err
	}
	if cfg.WarmStart != nil {
		nn.CopyWeights(model.Params(), cfg.WarmStart)
	}
	w := &worker{
		cfg:           cfg,
		sched:         sched,
		comm:          c,
		model:         model,
		params:        model.Params(),
		pfs:           pfs,
		exchEpoch:     -1,
		assignedGroup: -1,
		joinedEpoch:   -1,
		arena:         arena.New(0),
	}
	w.model.SetArena(w.arena)
	w.loss.SetArena(w.arena)
	if cfg.ImportanceSampling {
		w.lossByID = make(map[int]float64)
	}
	if cfg.FullSyncBatchNorm {
		for _, layer := range model.Layers {
			if bn, ok := layer.(*nn.BatchNorm); ok {
				bn.Sync = func(stats []float32) {
					mpi.Allreduce(c, stats, mpi.OpSum)
				}
			}
		}
	}
	if cfg.OverlapGrads {
		w.setupOverlap()
	}
	w.opt = newOptimizer(cfg)
	if cfg.Strategy.Kind == shuffle.Corgi2 {
		w.tier, err = cache.New(cfg.ShardStore, cfg.CacheBytes, "")
		if err != nil {
			return nil, err
		}
		// Window size: half the budget in shards, so the next window can
		// prefetch while the current one is pinned; 0 = whole assignment in
		// one window (unlimited cache).
		if cfg.CacheBytes > 0 {
			w.corgiWindow = int(cfg.CacheBytes / (2 * cfg.ShardStore.Manifest().MaxShardBytes()))
			if w.corgiWindow < 1 {
				w.corgiWindow = 1
			}
		}
	} else if cfg.Strategy.Kind != shuffle.Global {
		w.local = store.NewLocal(cfg.LocalCapacityBytes)
		// A resumed rank restores the sample set its snapshot recorded (the
		// exchange has moved samples since the initial partition); a joiner
		// (nil parts, nil rs) starts empty and receives its share through
		// the post-admission rebalance.
		var stage []int
		switch {
		case rs != nil:
			ids, err := decodeIDs(rs.sections["store"])
			if err != nil {
				return nil, fmt.Errorf("restoring stored sample set: %w", err)
			}
			stage = ids
		case parts != nil:
			stage = parts[c.Rank()]
		}
		for _, id := range stage {
			s, err := pfs.Read(id)
			if err != nil {
				return nil, err
			}
			if err := w.local.Put(s); err != nil {
				return nil, fmt.Errorf("staging initial partition: %w", err)
			}
		}
		if cfg.Strategy.Kind == shuffle.PartialLocal {
			w.exchanger, err = shuffle.NewScheduler(c, w.local, cfg.Strategy.Q, len(cfg.Dataset.Train), cfg.Seed)
			if err != nil {
				return nil, err
			}
			if cfg.ExchangeGroupSize > 0 {
				if err := w.exchanger.UseHierarchical(cfg.ExchangeGroupSize); err != nil {
					return nil, err
				}
			}
			if cfg.OnPeerFail == "degrade" {
				w.exchanger.SetDegradeOnPeerFailure(true)
			}
			enc, err := data.ParseEncoding(cfg.SampleEncoding)
			if err != nil {
				return nil, err
			}
			if err := w.exchanger.SetSampleEncoding(enc); err != nil {
				return nil, err
			}
			if cfg.WireDedup {
				budget := cfg.WireDedupBudget
				if budget == 0 {
					budget = DefaultWireDedupBudget
				}
				if err := w.exchanger.SetWireDedup(budget); err != nil {
					return nil, err
				}
			}
			if cfg.AutoQ {
				if err := w.initController(); err != nil {
					return nil, err
				}
			} else if len(cfg.QSchedule) > 0 {
				// Open-loop replay: the trajectory is the schedule itself;
				// epoch 0's value applies before the first Scheduling.
				w.ctrlQ, w.ctrlReason = cfg.QSchedule[0], ReasonSchedule
				if err := w.exchanger.SetQ(w.ctrlQ); err != nil {
					return nil, err
				}
			}
		}
	}
	if rs != nil {
		if err := w.applyResume(rs); err != nil {
			return nil, err
		}
	}
	if cfg.Telemetry != nil {
		w.registerTelemetry(cfg.Telemetry)
	}
	return w, nil
}

// newOptimizer builds the configured update rule. The recovery path re-runs
// it after a group re-formation: re-created state (zeroed momentum) is the
// one optimizer state every survivor can agree on without shipping buffers.
func newOptimizer(cfg Config) nn.Optimizer {
	switch {
	case cfg.Optimizer == "lamb":
		return nn.NewLAMB(cfg.WeightDecay)
	case cfg.Optimizer == "lars" || (cfg.Optimizer == "" && cfg.UseLARS):
		eta := cfg.LARSEta
		if eta == 0 {
			eta = 0.01
		}
		return nn.NewLARS(cfg.Momentum, cfg.WeightDecay, eta)
	default:
		return nn.NewSGD(cfg.Momentum, cfg.WeightDecay)
	}
}

// setupOverlap builds the bucketed gradient-sync state: the reverse-layer
// bucket plan and each bucket's ring-chunk bounds. Bucket i's bounds are
// the GLOBAL flat partition (chunk r =
// [r·n/M, (r+1)·n/M) over all n parameters) clamped to the bucket's
// [Lo, Hi) range and re-based — so every element keeps the chunk index it
// has under the flat single-Allreduce path, and with it the exact
// reduction order (see mpi.IAllreduceChunks). Chunks outside the bucket
// clamp to empty and the ring skips them symmetrically.
func (w *worker) setupOverlap() {
	w.plan = nn.NewBucketPlan(w.model, w.cfg.GradBucketBytes)
	w.bucketReqs = make([]*mpi.CollRequest, len(w.plan.Buckets))
	// Group size, not world size: after a degrade-mode Shrink the bucket
	// rings run over the survivors, and IAllreduceChunks requires bounds
	// sized to the collective group. The recovery path re-runs setupOverlap.
	size := w.comm.GroupSize()
	global := make([]int, size+1)
	for i := 0; i <= size; i++ {
		global[i] = i * w.plan.NumEl / size
	}
	w.bucketBounds = make([][]int, len(w.plan.Buckets))
	for bi, b := range w.plan.Buckets {
		bounds := make([]int, size+1)
		for i := 0; i <= size; i++ {
			g := global[i]
			if g < b.Lo {
				g = b.Lo
			}
			if g > b.Hi {
				g = b.Hi
			}
			bounds[i] = g - b.Lo
		}
		w.bucketBounds[bi] = bounds
	}
	w.bucketHook = w.launchReadyBuckets
}

// launchReadyBuckets is the Sequential.BackwardWithHook callback: when
// backward completes a layer that closes one or more buckets, it launches
// their non-blocking averaging all-reduces on the buckets' own ranges of
// the model's gradient arena — the gradients backward just wrote are the
// ring's buffer, nothing is flattened. It runs on the backward critical
// path, so it only launches; the rings progress on their own goroutines
// while earlier layers keep computing (into other ranges of the arena).
func (w *worker) launchReadyBuckets(layer int) {
	launched := false
	grads := w.model.Grads()
	for _, bi := range w.plan.ReadyAt(layer) {
		b := w.plan.Buckets[bi]
		w.bucketReqs[bi] = mpi.IAllreduceChunks(w.comm, grads[b.Lo:b.Hi], mpi.OpAvg, w.bucketBounds[bi])
		launched = true
	}
	if launched {
		// Give in-flight rings a scheduling slot at each bucket boundary.
		// Backward's layer kernels have no yield points, so on oversubscribed
		// or single-P runtimes a launched ring could otherwise starve until
		// the drain — exactly the exposure this path exists to remove. The
		// yield is nanoseconds when there is nothing runnable.
		runtime.Gosched()
	}
}

// drainBuckets completes the overlapped GEWU phase: wait for each bucket's
// all-reduce in launch order and step just that bucket's parameters
// (Optimizer.StepPartial) from the averaged gradients the ring left in
// place, so the weight update of early buckets overlaps the still-in-flight
// later ones. Exposed wait, total in-flight time, and exact wire bytes are
// accounted per bucket.
func (w *worker) drainBuckets(es *EpochStats, lr float32) {
	for bi, req := range w.bucketReqs {
		b := w.plan.Buckets[bi]
		tw := time.Now()
		req.Wait()
		wait := time.Since(tw)
		es.GEWUWaitTime += wait
		es.GEWUCommTime += req.Elapsed()
		sent, recv := req.WireBytes()
		es.GradWireBytes += sent + recv
		if w.tm != nil {
			w.tm.GEWUWaitNs.Add(int64(wait))
			w.tm.GEWUCommNs.Add(int64(req.Elapsed()))
			w.tm.GradWireBytes.Add(sent + recv)
		}
		w.opt.StepPartial(w.params, b.FirstParam, b.LastParam, lr)
		w.bucketReqs[bi] = nil
	}
}

func (w *worker) train() ([]EpochStats, error) {
	stats := make([]EpochStats, 0, w.cfg.Epochs)
	for epoch := w.startEpoch; epoch < w.cfg.Epochs; epoch++ {
		// Elastic worlds admit rendezvoused joiners at the epoch boundary —
		// a quiescent point: no exchange window open, no collective in
		// flight — so the grown group runs this whole epoch together.
		if w.cfg.Elastic && epoch != w.joinedEpoch {
			if err := w.admitJoiners(epoch); err != nil {
				return nil, fmt.Errorf("admitting joiners before epoch %d: %w", epoch, err)
			}
		}
		es := EpochStats{Epoch: epoch}
		// The whole per-epoch block runs under a Guard: in degrade mode a
		// peer death unwinds the current collective on every survivor
		// (mpi.collWait) and surfaces here as a typed error instead of
		// killing the rank — the transaction boundary at which the group
		// re-forms.
		err := w.comm.Guard(func() error {
			if err := w.runEpoch(epoch, &es); err != nil {
				return err
			}
			if w.cfg.SyncBatchNormStats {
				w.syncBatchNormStats()
			}
			tv := time.Now()
			es.ValAcc = w.validate()
			w.emitTrace(epoch, es, time.Since(tv))
			return nil
		})
		trained := err == nil
		if err == nil {
			stats = append(stats, es)
			// The controller retunes Q at this boundary — after the epoch's
			// collectives settle, BEFORE the snapshot — so the checkpoint
			// already carries the next epoch's decided fraction and a resume
			// replays the trajectory bitwise (DESIGN.md §16). It runs at the
			// FINAL boundary too: a run stopped at Epochs=k and resumed must
			// see the same decision the uninterrupted run made there. A peer
			// death during the gather or broadcast funnels into the same
			// recovery as a mid-epoch one.
			if w.ctrl != nil {
				if cerr := w.comm.Guard(func() error { return w.controllerStep(epoch) }); cerr != nil {
					err = fmt.Errorf("controller step after epoch %d: %w", epoch, cerr)
				}
			}
		}
		if err == nil {
			// Snapshot AFTER the epoch's collectives settle: every rank
			// reaches this point at the same step, so all ranks snapshot the
			// same state. A peer may still die while the boundary drains (a
			// slow rank can sit in the commit barrier while a fast one is
			// already deep in the next epoch's exchange); in degrade mode
			// that death funnels into the same recovery as a mid-epoch one.
			if w.checkpointDue(epoch + 1) {
				if cerr := w.comm.Guard(func() error { return w.saveCheckpoint(epoch + 1) }); cerr != nil {
					err = fmt.Errorf("checkpoint before epoch %d: %w", epoch+1, cerr)
				}
			}
		}
		if err != nil {
			pe, isPeer := mpi.PeerErrorFrom(err)
			if !isPeer || w.cfg.OnPeerFail != "degrade" {
				return nil, err // abort policy (or a non-failure error)
			}
			resume, rerr := w.recoverPeerFailure(epoch, pe, &es)
			if rerr != nil {
				return nil, fmt.Errorf("recovering from death of rank %d: %w", pe.Rank, rerr)
			}
			if !trained {
				es.Disrupted = true
				w.emitTrace(epoch, es, 0)
				stats = append(stats, es)
			}
			// A failure straddling an epoch boundary can leave part of the
			// group one epoch ahead; the resume point skips past the
			// furthest progress so no epoch (and no exchange tag space) is
			// ever re-entered.
			for skip := epoch + 1; skip < resume && skip < w.cfg.Epochs; skip++ {
				stats = append(stats, EpochStats{Epoch: skip, Skipped: true,
					DegradedSlots: es.DegradedSlots, EffectiveQ: es.EffectiveQ})
			}
			epoch = resume - 1
			// Every recovery of a checkpointing run commits a post-shrink
			// snapshot at the agreed resume boundary: the degraded group is
			// durably recorded the moment it forms (a resume restores the
			// shrunken partition, never the pre-failure one), and a snapshot
			// generation interrupted by the death — whichever protocol step
			// it reached — is superseded by a complete one. All survivors
			// reach here with the same resume point, whether the failure
			// surfaced in their epoch or in their checkpoint barrier.
			if w.cfg.CheckpointDir != "" && resume <= w.cfg.Epochs {
				if cerr := w.checkpointAfterRecovery(resume); cerr != nil {
					return nil, cerr
				}
			}
			continue
		}
	}
	return stats, nil
}

// checkpointAfterRecovery commits the post-shrink snapshot, riding out
// further deaths with bounded retries: each failed attempt re-forms the
// group (the generation bump re-salts the checkpoint tag, so a retry can
// never gather a stale report from the failed attempt) and tries again.
func (w *worker) checkpointAfterRecovery(resume int) error {
	const maxAttempts = 4
	for attempt := 0; ; attempt++ {
		err := w.comm.Guard(func() error { return w.saveCheckpoint(resume) })
		if err == nil {
			return nil
		}
		pe, isPeer := mpi.PeerErrorFrom(err)
		if !isPeer || attempt == maxAttempts-1 {
			return fmt.Errorf("post-recovery checkpoint before epoch %d: %w", resume, err)
		}
		var es EpochStats
		if _, rerr := w.recoverPeerFailure(resume-1, pe, &es); rerr != nil {
			return fmt.Errorf("recovering from death of rank %d during post-recovery checkpoint: %w", pe.Rank, rerr)
		}
	}
}

// emitTrace records the epoch's phase durations and byte volumes.
func (w *worker) emitTrace(epoch int, es EpochStats, valTime time.Duration) {
	rec := w.cfg.Trace
	if rec == nil {
		return
	}
	rank := w.comm.Rank()
	// On a wire backend the exchange event carries the measured number of
	// bytes that actually crossed the network; on inproc it carries the
	// simulated volume (Sample.Bytes), preserving the modeling semantics.
	exchangeBytes := es.ExchangeBytes
	if es.ExchangeWireBytes > 0 {
		exchangeBytes = es.ExchangeWireBytes
	}
	rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseIO,
		Duration: es.IOTime, Bytes: es.LocalReadBytes + es.PFSReadBytes})
	rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseExchange,
		Duration: es.ExchangeTime, Bytes: exchangeBytes})
	rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseFWBW,
		Duration: es.FWBWTime})
	// The GEWU event carries the gradient all-reduce's exact wire volume
	// (zero on inproc): bucket rings overlap with backward compute, so only
	// frame-level accounting (mpi.CollRequest.WireBytes / AllreduceWire)
	// can attribute the traffic to this phase.
	rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseGEWU,
		Duration: es.GEWUTime, Bytes: es.GradWireBytes})
	rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseValidate,
		Duration: valTime})
	if es.DegradedSlots > 0 || es.Disrupted {
		rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseDegraded,
			Bytes: int64(es.DegradedSlots), EffectiveQ: es.EffectiveQ})
	}
}

// finishExchange completes the open epoch's exchange: Synchronize, record
// the epoch's volumes and degradation, apply the storage swap, and close
// the Scheduling…CleanLocalStorage window. It is pure point-to-point work —
// the recovery path calls it too, after the survivors have agreed that
// every one of them reached this epoch's exchange.
func (w *worker) finishExchange(es *EpochStats) error {
	if err := w.exchanger.Synchronize(); err != nil {
		return err
	}
	// On a wire backend, record the exchange's true network volume (exact
	// frame sizes; the traffic itself overlaps with compute, so transport
	// counter deltas cannot attribute it to this phase).
	if w.comm.Transport().Stats().Wire {
		sent, recv := w.exchanger.WireTraffic()
		es.ExchangeWireBytes += sent + recv
	}
	for _, s := range w.exchanger.Received() {
		es.ExchangeBytes += s.Bytes
	}
	hits, saved := w.exchanger.DedupStats()
	es.DedupHits += hits
	es.DedupBytesSaved += saved
	ds, dr := w.exchanger.DegradedSlots()
	es.DegradedSlots = ds + dr
	es.EffectiveQ = w.exchanger.EffectiveQ()
	if err := w.exchanger.CleanLocalStorage(); err != nil {
		return err
	}
	w.exchEpoch = -1
	return nil
}

// recoverPeerFailure re-forms the world around the dead peer(s) and returns
// the epoch at which every survivor resumes. It runs on every survivor —
// the failure registry unwinds the same collective on each of them (they
// are at most ONE collective apart, because every trainer collective is a
// ring that cannot complete without all members) — and performs, in
// lock-step:
//
//  1. Drain any in-flight gradient buckets (their rings unwind on the
//     failure registry; waiting here is what keeps the no-leaked-goroutine
//     guarantee).
//  2. Shrink the collective group to the survivors and realign the
//     collective sequence counter to a generation-salted base every
//     survivor derives locally, so stale frames from the sacrificed
//     collective can never alias a future tag.
//  3. Reconcile over the shrunken group (one AllgatherVarLen): each
//     survivor shares its current epoch and its known-dead set. If the
//     dead sets disagree (a survivor learned of the death late), everyone
//     adopts the union and repeats with the next generation.
//  4. Resolve the disrupted epoch's exchange: if every survivor had opened
//     it, complete it (Synchronize + CleanLocalStorage — the no-lost/no-dup
//     invariant's normal path); if some survivor never entered the epoch,
//     the ranks that did ABANDON it (Scheduler.Reset — the store is
//     untouched, so their unreceived sends stay conserved at the sender)
//     and the resume point skips past it so its tag space is never
//     re-entered.
//  5. Re-synchronize state: broadcast weights from the lowest surviving
//     rank (survivors can be one gradient step apart), reset optimizer
//     state (zeroed momentum is the
//     one state all survivors agree on without shipping buffers), and
//     rebuild the overlap bucket bounds for the new group size.
func (w *worker) recoverPeerFailure(epoch int, first *transport.PeerError, es *EpochStats) (resume int, err error) {
	// Step 1: settle in-flight bucket all-reduces. Each either completed
	// before the death or unwinds on the failure registry; both are fine.
	for bi, req := range w.bucketReqs {
		if req == nil {
			continue
		}
		r := req
		_ = w.comm.Guard(func() error { r.Wait(); return nil })
		w.bucketReqs[bi] = nil
	}

	// Steps 2-3: shrink + reconcile, repeating if the death sets disagree
	// or another peer dies during the reconciliation itself.
	const maxGenerations = 4
	var gathered [][]int
	for attempt := 0; ; attempt++ {
		if attempt == maxGenerations {
			return 0, fmt.Errorf("reconciliation did not converge after %d generations", maxGenerations)
		}
		dead := w.comm.FailedPeers()
		live := subtractSorted(w.comm.GroupRanks(), dead)
		if len(live) == 0 {
			return 0, fmt.Errorf("no survivors")
		}
		if err := w.comm.Shrink(live); err != nil {
			return 0, err
		}
		w.generation++
		base := w.generation << 32
		if base <= w.comm.CollSeq() {
			return 0, fmt.Errorf("collective sequence space exhausted (seq %d)", w.comm.CollSeq())
		}
		w.comm.SetCollSeq(base)
		var g [][]int
		gerr := w.comm.Guard(func() error {
			g = mpi.AllgatherVarLen(w.comm, append([]int{epoch}, dead...))
			return nil
		})
		if gerr != nil {
			continue // another death mid-reconciliation: next generation
		}
		union := append([]int(nil), dead...)
		agreed := true
		for _, r := range live {
			union = unionSorted(union, g[r][1:])
		}
		for _, r := range live {
			if !equalInts(g[r][1:], union) {
				agreed = false
			}
		}
		if !agreed {
			// Adopt the union and repeat — every survivor sees the same
			// gathered sets, so every survivor repeats with the same
			// generation counter.
			for _, dr := range union {
				if w.comm.PeerFailure(dr) == nil {
					w.comm.NotePeerFailure(transport.PeerError{Rank: dr, Phase: "reconciliation"})
				}
			}
			continue
		}
		gathered = g
		break
	}

	// Step 4: resolve the disrupted epoch's exchange and the resume point.
	minCur, maxCur := epoch, epoch
	for _, r := range w.comm.GroupRanks() {
		if c := gathered[r][0]; c < minCur {
			minCur = c
		} else if c > maxCur {
			maxCur = c
		}
	}
	if maxCur-minCur > 1 {
		return 0, fmt.Errorf("survivors diverged by %d epochs (min %d, max %d)", maxCur-minCur, minCur, maxCur)
	}
	resume = maxCur + 1
	if w.exchEpoch >= 0 {
		if epoch == minCur {
			// Everyone reached this epoch's exchange (ranks further along
			// completed it already): finish it properly so sent samples
			// commit and received ones are saved.
			if ferr := w.finishExchange(es); ferr != nil {
				return 0, ferr
			}
		} else {
			// Some survivor never opened this epoch: abandon it. The store
			// is untouched (no sample was deleted), so what we sent and
			// they never received survives here — conserved, not duplicated
			// (their copies rot undecoded in the mailbox; the epoch's tag
			// is never used again because resume skips past it).
			ds, dr := w.exchanger.DegradedSlots()
			es.DegradedSlots = ds + dr
			es.EffectiveQ = w.exchanger.EffectiveQ()
			w.exchanger.Reset()
			w.exchEpoch = -1
		}
	} else if w.exchanger != nil {
		ds, dr := w.exchanger.DegradedSlots()
		es.DegradedSlots = ds + dr
		es.EffectiveQ = w.exchanger.EffectiveQ()
	}
	if w.exchanger != nil {
		// The pair dedup caches are pure functions of each pair's delivered
		// frame stream, and a recovery leaves different survivors at
		// different points in that stream (some completed the disrupted
		// epoch's exchange, some abandoned it). Every survivor drops its
		// dedup state to the shared empty state; the caches rebuild from
		// live traffic in the next epoch.
		w.exchanger.InvalidateDedup()
	}

	// Step 5: re-synchronize replica state across the survivors. They are
	// at most one applied gradient step apart; the lowest survivor's
	// weights win.
	// Batch-norm RUNNING statistics are deliberately left alone: they are
	// per-worker by design (the paper's central mechanism) and were never
	// synchronized, so they carry no cross-rank consistency requirement.
	root := w.comm.GroupRanks()[0]
	for _, p := range w.params {
		mpi.Bcast(w.comm, p.W, root)
	}
	if w.ctrl != nil {
		// The controller trajectory survives the shrink: the new root's Q
		// wins (survivors can be one decision apart if the death struck
		// inside the control broadcast), and the non-domination threshold
		// moves with the smaller world. SetQ is legal here — recovery left
		// the exchange window closed (finishExchange or Reset above).
		qbuf := []float64{w.ctrl.Q()}
		mpi.Bcast(w.comm, qbuf, root)
		w.ctrl.Adopt(qbuf[0])
		w.ctrl.SetWorld(w.comm.GroupSize())
		if serr := w.exchanger.SetQ(qbuf[0]); serr != nil {
			return 0, serr
		}
		w.ctrlQ = qbuf[0]
		if w.cm != nil {
			w.cm.Q.Set(w.ctrlQ) // adoption, not a decision: gauge only
		}
	}
	w.opt = newOptimizer(w.cfg)
	if w.cfg.OverlapGrads {
		w.setupOverlap()
	}
	if w.tm != nil {
		w.tm.WorldSize.SetInt(int64(w.comm.GroupSize()))
		w.tm.Generation.SetInt(int64(w.generation))
	}
	return resume, nil
}

// subtractSorted returns a minus b; both must be sorted ascending.
func subtractSorted(a, b []int) []int {
	out := a[:0:0]
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// unionSorted merges two sorted ascending slices without duplicates.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// syncBatchNormStats averages every BatchNorm layer's running mean and
// variance across all workers (one allreduce over the concatenated
// statistics).
func (w *worker) syncBatchNormStats() {
	var stats []float32
	var layers []*nn.BatchNorm
	for _, l := range w.model.Layers {
		if bn, ok := l.(*nn.BatchNorm); ok {
			layers = append(layers, bn)
			stats = append(stats, bn.RunMean...)
			stats = append(stats, bn.RunVar...)
		}
	}
	if len(layers) == 0 {
		return
	}
	mpi.Allreduce(w.comm, stats, mpi.OpSum)
	inv := 1 / float32(w.comm.GroupSize())
	off := 0
	for _, bn := range layers {
		for j := range bn.RunMean {
			bn.RunMean[j] = stats[off+j] * inv
		}
		off += len(bn.RunMean)
		for j := range bn.RunVar {
			bn.RunVar[j] = stats[off+j] * inv
		}
		off += len(bn.RunVar)
	}
}

// epochIDs returns the sample IDs this worker trains on this epoch, in
// iteration order.
func (w *worker) epochIDs(epoch int) ([]int, error) {
	if w.cfg.Strategy.Kind == shuffle.Global {
		parts, err := shuffle.GlobalEpochPartition(len(w.cfg.Dataset.Train), w.comm.Size(), w.cfg.Seed, epoch)
		if err != nil {
			return nil, err
		}
		if w.lossByID != nil {
			return shuffle.WeightedOrder(parts[w.comm.Rank()], w.lossByID, w.cfg.Seed, epoch, w.comm.Rank()), nil
		}
		return parts[w.comm.Rank()], nil
	}
	if w.lossByID != nil {
		return shuffle.WeightedOrder(w.local.IDs(), w.lossByID, w.cfg.Seed, epoch, w.comm.Rank()), nil
	}
	return shuffle.EpochOrder(w.local.IDs(), w.cfg.Seed, epoch, w.comm.Rank()), nil
}

func (w *worker) readSample(id int, es *EpochStats) (data.Sample, error) {
	if w.cfg.Strategy.Kind == shuffle.Global {
		s, err := w.pfs.Read(id)
		if err == nil {
			es.PFSReadBytes += s.Bytes
		}
		return s, err
	}
	s, err := w.local.Get(id)
	if err == nil {
		es.LocalReadBytes += s.Bytes
	}
	return s, err
}

func (w *worker) runEpoch(epoch int, es *EpochStats) error {
	// Iteration count and effective batch are derived from the GLOBAL
	// shape (drop-last semantics): every rank must execute the same number
	// of collectives per epoch, even when N is not divisible by M and
	// local counts differ by one.
	b := w.cfg.BatchSize
	var ids []int
	var minLocal int
	if w.cfg.Strategy.Kind == shuffle.Corgi2 {
		var err error
		if minLocal, err = w.beginCorgiEpoch(epoch); err != nil {
			return err
		}
		defer func() {
			if w.stream != nil {
				w.stream.Close()
				w.stream = nil
			}
		}()
	} else {
		var err error
		if ids, err = w.epochIDs(epoch); err != nil {
			return err
		}
		minLocal = len(w.cfg.Dataset.Train) / w.comm.Size()
	}
	if w.comm.GroupSize() < w.comm.Size() || w.shortData {
		// Degraded world (or one resumed from a degraded snapshot): the dead
		// ranks' unexchanged samples are gone, so stores can dip below N/M
		// (retention and forfeiture also skew them independently). The
		// members agree on the smallest store with one group-min all-reduce
		// — same iteration count everywhere, and no rank slices past its own
		// sample list.
		buf := []int{len(ids)}
		mpi.Allreduce(w.comm, buf, mpi.OpMin)
		if buf[0] < minLocal {
			minLocal = buf[0]
		}
		if minLocal == 0 {
			return fmt.Errorf("epoch %d: a surviving rank has no local samples left", epoch)
		}
	}
	if b > minLocal {
		b = minLocal
	}
	iters := minLocal / b

	// Plan this epoch's exchange and derive the per-iteration chunk
	// (Q·b samples per iteration, Section III-C).
	chunk := 0
	if w.exchanger != nil {
		if sch := w.cfg.QSchedule; len(sch) > 0 {
			// Open-loop replay: pin this epoch's fraction from the schedule
			// before planning (past the end, the last entry holds).
			idx := epoch
			if idx >= len(sch) {
				idx = len(sch) - 1
			}
			if err := w.exchanger.SetQ(sch[idx]); err != nil {
				return err
			}
			w.ctrlQ, w.ctrlReason = sch[idx], ReasonSchedule
			if w.cm != nil {
				w.cm.Note(w.ctrlQ, w.ctrlReason)
			}
		}
		if w.lossByID != nil {
			w.exchanger.SetSendPriority(w.lossByID)
		}
		if err := w.exchanger.Scheduling(epoch); err != nil {
			return err
		}
		w.exchEpoch = epoch
		chunk = (w.exchanger.Slots() + iters - 1) / iters
		if w.ctrl != nil || len(w.cfg.QSchedule) > 0 {
			// The fraction this epoch actually planned with — the controller
			// (or schedule) trajectory the stats and telemetry expose.
			es.ControllerQ, es.ControllerReason = w.ctrlQ, w.ctrlReason
		}
	}

	lr := w.sched.LR(float64(epoch))
	if w.tm != nil {
		w.tm.Epoch.SetInt(int64(epoch))
	}
	var lossSum float64
	for it := 0; it < iters; it++ {
		if w.cfg.testIterHook != nil {
			if err := w.cfg.testIterHook(epoch, it); err != nil {
				return err
			}
		}
		if w.tm != nil {
			w.tm.Iteration.SetInt(int64(it))
		}
		// Phase: I/O — assemble the mini-batch from storage (the in-memory
		// stores, or the cache-tier stream under Corgi2).
		t0 := time.Now()
		var batch []int
		if w.stream != nil {
			if err := w.loadBatchStream(b, es); err != nil {
				return fmt.Errorf("epoch %d iteration %d: %w", epoch, it, err)
			}
		} else {
			batch = ids[it*b : (it+1)*b]
			if err := w.loadBatch(batch, es); err != nil {
				return fmt.Errorf("epoch %d iteration %d: %w", epoch, it, err)
			}
		}
		d := time.Since(t0)
		es.IOTime += d
		if w.tm != nil {
			w.tm.IONs.Add(int64(d))
			w.tm.Samples.Add(int64(b))
		}

		// Phase: overlapped sample exchange (post this iteration's chunk).
		if w.exchanger != nil && chunk > 0 {
			t0 = time.Now()
			if _, err := w.exchanger.Communicate(chunk); err != nil {
				return err
			}
			d = time.Since(t0)
			es.ExchangeTime += d
			if w.tm != nil {
				w.tm.ExchangeNs.Add(int64(d))
			}
		}

		// Phase: forward + backward. With OverlapGrads the backward pass
		// launches each gradient bucket's non-blocking all-reduce as soon as
		// its last layer's gradients land (Figure 4's overlap discipline,
		// applied to the gradient exchange): the bucket rings progress on
		// background goroutines while the earlier layers keep computing.
		t0 = time.Now()
		// Reclaim the previous step's activation workspaces wholesale.
		// Nothing arena-backed is live across this boundary: the last
		// iteration's outputs, gradients-of-activations, and loss buffers
		// are all dead once its optimizer step ran.
		w.arena.Reset()
		logits := w.model.Forward(w.xBuf, true)
		lossSum += w.loss.Forward(logits, w.yBuf)
		if w.lossByID != nil {
			for bi, l := range w.loss.PerSample() {
				w.lossByID[batch[bi]] = l
			}
		}
		w.model.BackwardWithHook(w.loss.Backward(), w.bucketHook)
		d = time.Since(t0)
		es.FWBWTime += d
		if w.tm != nil {
			w.tm.FWBWNs.Add(int64(d))
		}

		// Phase: gradient exchange + weight update (Equation 1: average
		// the per-worker gradients, then step). Overlapped: drain the
		// bucket requests in launch order, stepping per-bucket. Flat
		// fallback: one blocking averaging ring over the whole gradient
		// arena (exposed wait == total comm, the A/B baseline).
		t0 = time.Now()
		if w.plan != nil {
			w.drainBuckets(es, lr)
		} else {
			tw := time.Now()
			sent, recv := mpi.AllreduceWire(w.comm, w.model.Grads(), mpi.OpAvg)
			dw := time.Since(tw)
			es.GEWUWaitTime += dw
			es.GEWUCommTime += dw
			es.GradWireBytes += sent + recv
			if w.tm != nil {
				w.tm.GEWUWaitNs.Add(int64(dw))
				w.tm.GEWUCommNs.Add(int64(dw))
				w.tm.GradWireBytes.Add(sent + recv)
			}
			w.opt.Step(w.params, lr)
		}
		d = time.Since(t0)
		es.GEWUTime += d
		if w.tm != nil {
			w.tm.GEWUNs.Add(int64(d))
		}
	}

	// Epoch boundary: finish the exchange and swap storage.
	if w.exchanger != nil {
		t0 := time.Now()
		if err := w.finishExchange(es); err != nil {
			return err
		}
		d := time.Since(t0)
		es.ExchangeTime += d
		if w.tm != nil {
			w.tm.ExchangeNs.Add(int64(d))
		}
	}
	if w.ctrl != nil {
		// Record the epoch's deterministic controller observations now that
		// the exchange volumes are final; the control gather at the epoch
		// boundary ships them to the root.
		w.observeEpoch(ids[:iters*b], es)
	}
	if w.stream != nil {
		w.stream.Close()
		w.stream = nil
		// The epoch's PFS traffic is the tier's cumulative delta (real file
		// bytes — the misses plus prefetches this epoch actually paid for).
		st := w.tier.Stats()
		es.PFSReadBytes += st.PFSReadBytes - w.pfsAccounted
		w.pfsAccounted = st.PFSReadBytes
		// Warm the next epoch's first window behind validation — the
		// storage-tier analogue of the Figure 4 overlap. Only within the
		// same epoch group: a group boundary reassigns shards anyway.
		if next := epoch + 1; next < w.cfg.Epochs && w.cfg.Strategy.EpochGroup(next) == w.assignedGroup {
			plan := shuffle.Corgi2EpochPlan(w.assigned, w.cfg.ShardStore.Manifest().ShardSamples,
				w.corgiWindow, w.cfg.Seed, next, w.comm.Rank())
			if len(plan.Windows) > 0 {
				w.tier.Prefetch(plan.Windows[0])
			}
		}
	}

	// Average the reported loss across workers so every rank logs the
	// same curve.
	buf := []float64{lossSum / float64(iters)}
	mpi.Allreduce(w.comm, buf, mpi.OpSum)
	es.TrainLoss = buf[0] / float64(w.comm.GroupSize())
	return nil
}

// beginCorgiEpoch derives the epoch's shard assignment and read plan and
// opens the cache-tier stream. It returns the iteration floor: the minimum
// over ranks of assigned-sample totals, which every rank computes locally
// from the shared-seed assignment (no communication) so all ranks agree on
// the epoch's collective count.
func (w *worker) beginCorgiEpoch(epoch int) (int, error) {
	man := w.cfg.ShardStore.Manifest()
	group := w.cfg.Strategy.EpochGroup(epoch)
	if group != w.assignedGroup {
		assign, err := shuffle.Corgi2Assign(man.NumShards, w.comm.Size(), w.cfg.Seed, group)
		if err != nil {
			return 0, err
		}
		w.assigned = assign[w.comm.Rank()]
		w.assignedGroup = group
		w.corgiMinLocal = 0
		for r, shards := range assign {
			total := 0
			for _, sh := range shards {
				total += man.ShardSamples(sh)
			}
			if r == 0 || total < w.corgiMinLocal {
				w.corgiMinLocal = total
			}
		}
	}
	plan := shuffle.Corgi2EpochPlan(w.assigned, man.ShardSamples, w.corgiWindow, w.cfg.Seed, epoch, w.comm.Rank())
	stream, err := w.tier.OpenEpoch(plan.Windows, plan.Bounds, plan.Order)
	if err != nil {
		return 0, err
	}
	w.stream = stream
	return w.corgiMinLocal, nil
}

// loadBatchStream fills the reusable batch tensors from the cache-tier
// stream: features land directly in the batch tensor's rows (ReadInto, one
// copy, zero allocations in steady state).
func (w *worker) loadBatchStream(n int, es *EpochStats) error {
	dim := w.cfg.Dataset.FeatureDim
	if w.xBuf == nil || w.xBuf.Rows != n {
		w.xBuf = tensor.New(n, dim)
		w.yBuf = make([]int, n)
	}
	for i := 0; i < n; i++ {
		_, label, sim, err := w.stream.ReadInto(w.xBuf.Row(i))
		if err != nil {
			return err
		}
		w.yBuf[i] = label
		es.LocalReadBytes += sim
	}
	return nil
}

// loadBatch fills the reusable batch tensors from storage.
func (w *worker) loadBatch(ids []int, es *EpochStats) error {
	dim := w.cfg.Dataset.FeatureDim
	if w.xBuf == nil || w.xBuf.Rows != len(ids) {
		w.xBuf = tensor.New(len(ids), dim)
		w.yBuf = make([]int, len(ids))
	}
	for i, id := range ids {
		s, err := w.readSample(id, es)
		if err != nil {
			return err
		}
		copy(w.xBuf.Row(i), s.Features)
		w.yBuf[i] = s.Label
	}
	return nil
}

// validate evaluates the model on a shard of the validation set and
// combines correct counts across workers. Each worker evaluates with its
// own replica — weights are identical, but batch-norm running statistics
// are local, so a worker whose statistics drifted (the LS failure mode)
// drags the global accuracy down exactly as in real data-parallel eval.
func (w *worker) validate() float64 {
	val := w.cfg.Dataset.Val
	if len(val) == 0 {
		return 0
	}
	// Shard over the collective GROUP so a shrunken world still covers the
	// whole validation set (dead ranks' shards are re-spread).
	m, r := w.comm.GroupSize(), w.comm.GroupRank()
	lo := r * len(val) / m
	hi := (r + 1) * len(val) / m
	correct := 0
	const evalBatch = 256
	for start := lo; start < hi; start += evalBatch {
		end := start + evalBatch
		if end > hi {
			end = hi
		}
		// Eval batches share the step arena: reset per batch, so a long
		// validation shard never grows the arena past one batch's worth.
		w.arena.Reset()
		w.valBuf = tensor.EnsureShapeArena(w.arena, w.valBuf, end-start, w.cfg.Dataset.FeatureDim)
		x := w.valBuf
		y := make([]int, end-start)
		for i := start; i < end; i++ {
			copy(x.Row(i-start), val[i].Features)
			y[i-start] = val[i].Label
		}
		logits := w.model.Forward(x, false)
		pred := logits.ArgmaxRows()
		for i := range pred {
			if pred[i] == y[i] {
				correct++
			}
		}
	}
	buf := []float64{float64(correct)}
	mpi.Allreduce(w.comm, buf, mpi.OpSum)
	return buf[0] / float64(len(val))
}
