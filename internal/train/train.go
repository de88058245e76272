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
	"math"
	"time"

	"plshuffle/internal/analysis"
	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store"
	"plshuffle/internal/store/cache"
	"plshuffle/internal/store/shard"
	"plshuffle/internal/telemetry"
	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
	"plshuffle/internal/trace"
)

// larsEta is the LARS trust coefficient.
const larsEta = 0.01

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

// RunRank executes one rank's share of the configured training on an
// already-connected communicator of any backend — the entry point of the
// per-rank program every cmd/plsrun world runs (internal/distrun), whether
// its ranks are OS processes over TCP or goroutines over inproc. Every rank
// must pass an identical Config: the initial partition is derived deterministically from
// the seed, so no rank needs to see another's memory. cfg.Workers may be
// zero (it defaults to the communicator's world size) but must otherwise
// match it.
func RunRank(c *mpi.Comm, cfg Config) (*RankResult, error) {
	cfg, err := resolveConfig(c, cfg)
	if err != nil {
		return nil, err
	}
	var rs *resumeState
	if cfg.Resume {
		if rs, err = loadResume(c, cfg); err != nil {
			return nil, err
		}
	}
	w, err := newWorker(c, cfg, rs, nil)
	if err != nil {
		return nil, err
	}
	if w.tier != nil {
		defer w.tier.Close()
	}
	return w.run()
}

// resolveConfig defaults Workers to the world size, checks it against the
// communicator, and validates the configuration — the checks every entry
// point (RunRank, JoinRank) makes before it touches the world.
func resolveConfig(c *mpi.Comm, cfg Config) (Config, error) {
	if cfg.Workers == 0 {
		cfg.Workers = c.Size()
	}
	if cfg.Workers != c.Size() {
		return cfg, fmt.Errorf("train: cfg.Workers = %d but world size is %d", cfg.Workers, c.Size())
	}
	return cfg, cfg.Validate()
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

	// Corgi2 state: the ingested dataset (opened from Config.DataDir), the
	// node-local cache tier over it, and the epoch's open sample stream.
	// corgiWindow is the online-shuffle mixing radius in shards (sized so two
	// windows fit the cache budget: one pinned, one prefetching);
	// pfsAccounted snapshots the tier's cumulative PFS bytes so each epoch
	// records only its own delta.
	shards       *shard.Dataset
	tier         *cache.Tier
	stream       *cache.EpochStream
	corgiWindow  int
	pfsAccounted int64

	xBuf *tensor.Matrix
	yBuf []int

	// arena is this worker's step arena (DESIGN.md §14): every layer and
	// loss workspace for one forward+backward pass is bump-allocated from
	// it and reclaimed wholesale by the Reset at the top of the next
	// iteration — the steady-state training step does zero heap
	// allocation. valBuf is the arena-backed eval input batch.
	arena  *arena.Arena
	valBuf *tensor.Matrix

	// Gradient sync state (DESIGN.md §9). plan partitions the parameters into
	// reverse-layer buckets — size-capped ones under cfg.OverlapGrads, a
	// single bucket spanning the model without it;
	// bucketBounds[i] is bucket i's ring-chunk partition — the global flat
	// partition clamped to the bucket's range, precomputed once so the
	// steady state allocates nothing and every element keeps the flat
	// path's reduction order (bitwise-identical results). bucketReqs holds
	// the in-flight requests, indexed by bucket (== launch order);
	// bucketHook is the per-layer Backward completion hook, bound once so
	// the steady state does not re-create the method value. Under SGD,
	// bucketSteps[i] is bucket i's owner step: the ring calls it on the
	// part of this rank's chunk that falls in the bucket, at the epoch's
	// learning rate lr (nil under LARS, which steps in the drain).
	plan         *nn.BucketPlan
	bucketBounds [][]int
	bucketReqs   []*mpi.CollRequest
	bucketHook   func(layer int)
	bucketSteps  []func(lo, hi int)
	lr           float32

	// tm holds the rank's cumulative counters — the one place a clocked
	// interval or a gradient wire byte is booked (a single atomic add on the
	// hot path). Registering it for scraping is optional (cfg.Telemetry);
	// EpochStats and the trace are derived from it by closeEpoch; closed holds
	// the counters' readings at the previous epoch's close.
	tm     telemetry.TrainMetrics
	closed [9]int64

	// Fault-tolerance and elasticity state (DESIGN.md §10, §15).
	// exchEpoch is the epoch whose exchange is currently open (-1 when no
	// Open…settle window is in flight) — the recovery path resets it. The membership generation lives in the
	// communicator (mpi.Comm.Generation).
	exchEpoch int
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

	// The exchange fraction (DESIGN.md §16). q is the one copy of the
	// fraction the next epoch plans with and qReason the decision that set
	// it: Strategy.Q with no reason; under AutoQ the controller trajectory's
	// position — started by initController, decided by the group root and
	// installed by agreeQ, restored by applyResume; or the schedule hook's
	// entry (reason "schedule"). setQ is its one writer. globalHist is the
	// dataset's global label distribution, fixed at construction;
	// obsSkew/obsComm are the epoch's deterministic observations
	// (label-exposure total variation and the modeled exchange/compute cost
	// ratio) the control gather ships to the root. cm is the controller's
	// telemetry bundle (always owned, registered with the rest).
	q                float64
	qReason          string
	globalHist       []float64
	obsSkew, obsComm float64
	cm               *telemetry.ControllerMetrics
}

// newWorker builds one rank's worker from a resolved configuration and one
// of three origins: a founding rank stages its share of the seed's partition;
// a resumed rank (rs non-nil) restores its snapshot; a joiner (adm non-nil)
// starts with an empty store at the admitted epoch and generation, and
// receives its samples through the post-admission rebalance.
func newWorker(c *mpi.Comm, cfg Config, rs *resumeState, adm *admitMsg) (*worker, error) {
	var shards *shard.Dataset
	if cfg.Strategy.Kind == shuffle.Corgi2 {
		var err error
		if shards, err = shard.OpenDataset(cfg.DataDir); err != nil {
			return nil, err
		}
		if cfg.Dataset == nil {
			if cfg.Dataset, err = shards.Proxy(); err != nil {
				return nil, err
			}
		}
	}
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
		cfg:         cfg,
		sched:       cfg.Schedule,
		comm:        c,
		model:       model,
		params:      model.Params(),
		shards:      shards,
		exchEpoch:   -1,
		joinedEpoch: -1,
		arena:       arena.New(0),
		cm:          telemetry.NewControllerMetrics(append(analysis.QReasons(), ReasonSchedule)),
	}
	if w.sched == nil {
		w.sched = nn.Constant{Base: cfg.BaseLR}
	}
	w.setQ(cfg.Strategy.Q, "")
	w.model.SetArena(w.arena)
	w.loss.SetArena(w.arena)
	if cfg.FullSyncBatchNorm {
		for _, layer := range model.Layers {
			if bn, ok := layer.(*nn.BatchNorm); ok {
				bn.Sync = func(stats []float32) {
					mpi.Allreduce(c, stats, mpi.OpSum)
				}
			}
		}
	}
	w.opt = newOptimizer(cfg)
	w.setupOverlap()
	if cfg.Strategy.Kind == shuffle.Corgi2 {
		w.tier, err = cache.New(shards, cfg.CacheBytes, "")
		if err != nil {
			return nil, err
		}
		// Window size: half the budget in shards, so the next window can
		// prefetch while the current one is pinned; 0 = whole assignment in
		// one window (unlimited cache).
		if cfg.CacheBytes > 0 {
			w.corgiWindow = int(cfg.CacheBytes / (2 * shards.Manifest().MaxShardBytes()))
			if w.corgiWindow < 1 {
				w.corgiWindow = 1
			}
		}
	} else if cfg.Strategy.Kind != shuffle.Global {
		if err := w.stageLocal(rs, adm); err != nil {
			return nil, err
		}
		if cfg.Strategy.Kind == shuffle.PartialLocal {
			enc, err := data.ParseEncoding(cfg.SampleEncoding)
			if err != nil {
				return nil, err
			}
			opts := shuffle.Options{Encoding: enc}
			if cfg.WireDedup {
				opts.DedupBudget = DefaultWireDedupBudget
			}
			w.exchanger, err = shuffle.NewScheduler(c, w.local, cfg.Strategy.Q, len(cfg.Dataset.Train), cfg.Seed, opts)
			if err != nil {
				return nil, err
			}
			if cfg.AutoQ {
				w.initController()
			}
		}
	}
	switch {
	case rs != nil:
		if err := w.applyResume(rs); err != nil {
			return nil, err
		}
	case adm != nil:
		// The joiner enters the generation the members opened when they
		// admitted it, and lands on their collective sequence base.
		if err := c.EnterGeneration(adm.generation); err != nil {
			return nil, err
		}
		w.startEpoch, w.joinedEpoch, w.shortData = adm.epoch, adm.epoch, adm.short
	}
	if cfg.Telemetry != nil {
		w.registerTelemetry(cfg.Telemetry)
	}
	return w, nil
}

// stageLocal fills the local-family store from the worker's origin: the
// snapshot's sample set (the exchange has moved samples since the initial
// partition), nothing for a joiner, or a founding rank's share of the
// partition — deterministic in (N, Workers, Seed), hence identical across
// processes.
func (w *worker) stageLocal(rs *resumeState, adm *admitMsg) error {
	cfg := w.cfg
	train := cfg.Dataset.Train
	w.local = store.NewLocal(0)
	var stage []int
	switch {
	case rs != nil:
		ids, err := decodeIDs(rs.sections["store"], len(train))
		if err != nil {
			return fmt.Errorf("restoring stored sample set: %w", err)
		}
		stage = ids
	case adm == nil:
		var parts [][]int
		var err error
		if cfg.PartitionLocality > 0 {
			labels := make([]int, len(train))
			for i, s := range train {
				labels[i] = s.Label
			}
			parts, err = shuffle.PartitionWithLocality(labels, cfg.Workers, cfg.PartitionLocality, cfg.Seed)
		} else {
			parts, err = shuffle.Partition(len(train), cfg.Workers, cfg.Seed)
		}
		if err != nil {
			return err
		}
		stage = parts[w.comm.Rank()]
	}
	for _, id := range stage {
		if err := w.local.Put(train[id]); err != nil {
			return fmt.Errorf("staging initial partition: %w", err)
		}
	}
	return nil
}

// newOptimizer builds the configured update rule. resync re-runs it after a
// group re-formation.
func newOptimizer(cfg Config) nn.Optimizer {
	if cfg.Optimizer == "lars" {
		return nn.NewLARS(cfg.Momentum, cfg.WeightDecay, larsEta)
	}
	return nn.NewSGD(cfg.Momentum, cfg.WeightDecay)
}

// setupOverlap builds the gradient-sync state: the reverse-layer bucket plan
// and each bucket's ring-chunk bounds. Bucket i's bounds are
// the GLOBAL flat partition (chunk r =
// [r·n/M, (r+1)·n/M) over all n parameters) clamped to the bucket's
// [Lo, Hi) range and re-based — so every element keeps the chunk index it
// has under the flat single-Allreduce path, and with it the exact
// reduction order (see mpi.IAllreduceChunks). Chunks outside the bucket
// clamp to empty and the ring skips them symmetrically.
//
// Under SGD it also shards the optimizer (DESIGN.md §9): the rank keeps
// the moments of the one chunk the ring leaves it holding fully averaged,
// (GroupRank()+1) mod M, and each bucket's owner step updates that chunk's
// weights in place before the all-gather carries them to every rank. It
// runs wherever the optimizer is re-created, so owners change only where
// the moments start from zero again.
func (w *worker) setupOverlap() {
	capBytes := w.cfg.gradBucketBytes
	if !w.cfg.OverlapGrads {
		// The serial A/B baseline is a bucket plan too: one bucket spanning
		// the model, ready only when backward has finished its first layer, so
		// nothing overlaps and the whole ring is exposed wait.
		capBytes = math.MaxInt
	}
	w.plan = nn.NewBucketPlan(w.model, capBytes)
	w.bucketReqs = make([]*mpi.CollRequest, len(w.plan.Buckets))
	// Group size, not world size: after a degrade-mode Shrink the bucket
	// rings run over the survivors, and IAllreduceChunks requires bounds
	// sized to the collective group. resync re-runs setupOverlap.
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
	w.bucketSteps = nil
	sgd, ok := w.opt.(*nn.SGD)
	if !ok {
		return
	}
	own := (w.comm.GroupRank() + 1) % size
	sgd.Shard(w.params, global[own], global[own+1])
	weights, grads := w.model.Weights(), w.model.Grads()
	w.bucketSteps = make([]func(lo, hi int), len(w.plan.Buckets))
	for bi, b := range w.plan.Buckets {
		w.bucketSteps[bi] = func(lo, hi int) { sgd.StepRange(weights, grads, b.Lo+lo, b.Lo+hi, w.lr) }
	}
}

func (w *worker) train() ([]EpochStats, error) {
	stats := make([]EpochStats, 0, w.cfg.Epochs)
	for epoch := w.startEpoch; epoch < w.cfg.Epochs; epoch++ {
		es := EpochStats{Epoch: epoch}
		// stood is the epoch this rank reports to a recovery: the one it is
		// in, or — while the admission round before it is still running — the
		// one before, whose boundary it has not left.
		stood, disrupted := epoch, false
		// mine indexes this epoch's entry in stats once it has one; the entry
		// is closed at the end of the iteration, after everything the epoch's
		// boundary clocks (validation, checkpoints) has run.
		mine := -1
		var err error
		// Elastic worlds admit rendezvoused joiners at the epoch boundary —
		// a quiescent point: no exchange window open, no collective in
		// flight — so the grown group runs this whole epoch together.
		if w.cfg.Elastic && epoch != w.joinedEpoch {
			if aerr := w.admitJoiners(epoch); aerr != nil {
				err = fmt.Errorf("admitting joiners before epoch %d: %w", epoch, aerr)
				stood = epoch - 1
			}
		}
		if err == nil {
			// Under a Guard a peer death unwinds the current collective on every
			// survivor (mpi.collWait) into a typed error: the transaction
			// boundary at which the group re-forms.
			err = w.comm.Guard(func() error {
				if err := w.runEpoch(epoch, &es); err != nil {
					return err
				}
				if w.cfg.SyncBatchNormStats {
					w.syncBatchNormStats()
				}
				tv := time.Now()
				es.ValAcc = w.validate()
				w.tm.ValidateNs.Add(int64(time.Since(tv)))
				return nil
			})
			disrupted = err != nil
		}
		if err == nil {
			mine, stats = len(stats), append(stats, es)
			// The controller retunes Q at this boundary, BEFORE the snapshot,
			// so the checkpoint carries the next epoch's fraction and a resume
			// replays the trajectory bitwise (DESIGN.md §16) — at the FINAL
			// boundary too, for a run stopped at Epochs=k and resumed.
			if w.cfg.AutoQ {
				if cerr := w.comm.Guard(func() error { return w.controllerStep(epoch) }); cerr != nil {
					err = fmt.Errorf("controller step after epoch %d: %w", epoch, cerr)
				}
			}
		}
		if err == nil {
			// Snapshot AFTER the epoch's collectives settle, so every rank
			// snapshots the same state; a death while the boundary drains
			// funnels into the same recovery as a mid-epoch one.
			if w.checkpointDue(epoch + 1) {
				if cerr := w.comm.Guard(func() error { return w.saveCheckpoint(epoch + 1) }); cerr != nil {
					err = fmt.Errorf("checkpoint before epoch %d: %w", epoch+1, cerr)
				}
			}
		}
		if err != nil {
			resume, rerr := w.reform(err, stood, &es)
			if rerr != nil {
				return nil, rerr // abort policy (or a non-failure error)
			}
			if disrupted {
				es.Disrupted = true
				mine, stats = len(stats), append(stats, es)
			}
			// A failure straddling an epoch boundary can leave part of the
			// group one epoch ahead; the resume point skips past the
			// furthest progress so no epoch (and no exchange tag space) is
			// ever re-entered.
			for skip := stood + 1; skip < resume && skip < w.cfg.Epochs; skip++ {
				// The members that did enter the skipped epoch reset its
				// exchange (EffectiveQ 0) and planned it with the fraction
				// resync just adopted from the root (a disrupted epoch reaches
				// no decision), so every survivor reports one trajectory.
				sk := EpochStats{Epoch: skip, Skipped: true}
				w.stampQ(&sk)
				stats = append(stats, sk)
			}
			epoch = resume - 1
		}
		if mine >= 0 {
			w.closeEpoch(&stats[mine])
		}
	}
	return stats, nil
}

// closeEpoch closes the epoch's accounting window: es's durations and
// gradient wire bytes become the growth of the worker's counters since the
// previous close, and the trace events are emitted from es. Windows abut —
// whatever is clocked between two closes (a post-recovery snapshot, say)
// lands in the next one — so the EpochStats of a run sum to the counters.
func (w *worker) closeEpoch(es *EpochStats) {
	grown := func(i int, c *telemetry.Counter) int64 {
		now := c.Load()
		d := now - w.closed[i]
		w.closed[i] = now
		return d
	}
	es.IOTime = time.Duration(grown(0, &w.tm.IONs))
	es.ExchangeTime = time.Duration(grown(1, &w.tm.ExchangeNs))
	es.FWBWTime = time.Duration(grown(2, &w.tm.FWBWNs))
	es.GEWUTime = time.Duration(grown(3, &w.tm.GEWUNs))
	es.GEWUWaitTime = time.Duration(grown(4, &w.tm.GEWUWaitNs))
	es.GEWUCommTime = time.Duration(grown(5, &w.tm.GEWUCommNs))
	es.ValidateTime = time.Duration(grown(6, &w.tm.ValidateNs))
	es.CheckpointTime = time.Duration(grown(7, &w.tm.CheckpointNs))
	es.GradWireBytes = grown(8, &w.tm.GradWireBytes)
	w.emitTrace(*es)
}

// emitTrace records the epoch's phase durations and byte volumes — a pure
// function of es.
func (w *worker) emitTrace(es EpochStats) {
	rec := w.cfg.Trace
	if rec == nil {
		return
	}
	rank, epoch := w.comm.Rank(), es.Epoch
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
	// frame-level accounting (mpi.CollRequest.WireBytes) can attribute the
	// traffic to this phase.
	rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseGEWU,
		Duration: es.GEWUTime, Bytes: es.GradWireBytes})
	if !es.Disrupted {
		// A disrupted epoch never validated.
		rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseValidate,
			Duration: es.ValidateTime})
	}
	if es.CheckpointTime > 0 {
		rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseCheckpoint,
			Duration: es.CheckpointTime})
	}
	if es.Disrupted {
		rec.Record(trace.Event{Rank: rank, Epoch: epoch, Phase: trace.PhaseDegraded,
			EffectiveQ: es.EffectiveQ})
	}
}
