// Package perfmodel is the analytic epoch-time model that regenerates the
// paper's performance results (Figures 7b, 9, and 10). The paper's own
// global-shuffling number for DeepCAM is exactly this kind of model ("a
// lower bound estimate based on the theoretical peak bandwidth of the
// PFS"), so an analytic model is the faithful substitute for the authors'
// 1,088-node testbed.
//
// The model decomposes an epoch into the four phases of Figure 10:
//
//	IO       — reading the worker's N/M samples (local SSD or PFS)
//	EXCHANGE — the exposed (non-overlapped) part of the PLS sample exchange
//	FW+BW    — forward and backward propagation
//	GE+WU    — gradient exchange and weight update, including the
//	           collective's wait for I/O stragglers under global shuffling
//
// Machine parameters live in internal/cluster and are calibrated against
// the paper's reported measurements: LS reads its 512-worker ImageNet share
// in ~8 s, GS averages ~20 s with an 11.9–142 s spread, the GS gradient
// exchange inflates to ~70+ s from straggler waiting, GS is ~5x slower
// overall at 128 workers, and partial-0.1 matches LS up to 512 workers but
// degrades at 1,024–2,048 where only 40 and 20 iterations per epoch remain
// to overlap with (Section V-F).
package perfmodel

import (
	"fmt"
	"math"

	"plshuffle/internal/cluster"
	"plshuffle/internal/shuffle"
)

// ModelProfile carries the two numbers the performance model needs about a
// network: the gradient volume per allreduce and the per-sample
// forward+backward compute time on one worker of the target machine.
type ModelProfile struct {
	Name             string
	ParamBytes       int64
	ComputePerSample float64 // seconds
}

// paperProfile derives a model's per-sample compute the same way the
// calibrated local profiles do (calibrate.go): a per-sample flop count
// divided by an achieved-throughput figure, instead of an opaque
// seconds-per-sample constant. FlopsPerSample is forward+backward (≈3×
// the published forward inference count); EffectiveGFLOPS is the
// throughput that reproduces the per-GPU training rates published for an
// ABCI V100 worker — well under the datasheet peak, as real per-model
// efficiency always is.
type paperProfile struct {
	ParamBytes      int64
	FlopsPerSample  float64
	EffectiveGFLOPS float64
}

// profiles approximate the paper's models on an ABCI V100 worker
// (parameters x 4 bytes).
var profiles = map[string]paperProfile{
	"resnet50":     {ParamBytes: 102e6, FlopsPerSample: 12.3e9, EffectiveGFLOPS: 1447},
	"densenet161":  {ParamBytes: 115e6, FlopsPerSample: 23.4e9, EffectiveGFLOPS: 1671},
	"wideresnet28": {ParamBytes: 146e6, FlopsPerSample: 15.8e9, EffectiveGFLOPS: 2633},
	"inceptionv4":  {ParamBytes: 170e6, FlopsPerSample: 36.9e9, EffectiveGFLOPS: 3075},
	"deepcam":      {ParamBytes: 225e6, FlopsPerSample: 130e9, EffectiveGFLOPS: 1300},
}

// errNoThroughput reports a failed throughput measurement.
var errNoThroughput = fmt.Errorf("perfmodel: throughput measurement returned no signal")

// Profile returns the performance profile for one of the paper's models,
// with compute derived as flops / effective throughput.
func Profile(name string) (ModelProfile, error) {
	p, ok := profiles[name]
	if !ok {
		return ModelProfile{}, fmt.Errorf("perfmodel: unknown model %q", name)
	}
	return ModelProfile{
		Name:             name,
		ParamBytes:       p.ParamBytes,
		ComputePerSample: p.FlopsPerSample / (p.EffectiveGFLOPS * 1e9),
	}, nil
}

// Workload describes one training configuration to cost.
type Workload struct {
	N              int   // training samples
	BytesPerSample int64 // real on-disk sample size
	LocalBatch     int   // per-worker mini-batch b
	Model          ModelProfile
	// Sequential marks large-file datasets (DeepCAM) whose local reads run
	// at the SSD's sequential rate instead of the small-file+decode rate.
	Sequential bool
	// ExchangeGroupSize, when non-zero, models the hierarchical two-level
	// exchange (Section V-F's proposed remedy): per-slot traffic is
	// aligned into M/groupSize group-pairs, so the congestion and
	// synchronization terms scale with the group count instead of the full
	// world size.
	ExchangeGroupSize int
}

// Validate reports configuration errors.
func (w Workload) Validate() error {
	if w.N <= 0 || w.BytesPerSample <= 0 || w.LocalBatch <= 0 {
		return fmt.Errorf("perfmodel: workload fields must be positive: N=%d bytes=%d b=%d", w.N, w.BytesPerSample, w.LocalBatch)
	}
	if w.Model.ComputePerSample <= 0 || w.Model.ParamBytes <= 0 {
		return fmt.Errorf("perfmodel: model profile %q incomplete", w.Model.Name)
	}
	return nil
}

// Breakdown is the Figure 10 decomposition of one epoch, in seconds.
type Breakdown struct {
	IO        float64 // average per-worker sample read time
	IOSlowest float64 // slowest worker's read time (straggler)
	Exchange  float64 // exposed PLS exchange overhead
	FWBW      float64 // forward + backward propagation
	GEWU      float64 // gradient exchange + weight update (incl. straggler wait)
}

// Total returns the modeled epoch time.
func (b Breakdown) Total() float64 { return b.IO + b.Exchange + b.FWBW + b.GEWU }

// overlapIterRef is the iteration count below which exchange/compute
// overlap loses effectiveness; at 1,024 and 2,048 ABCI workers the paper
// observes 40 and 20 iterations per epoch and attributes the partial-0.1
// slowdown to the shrunken overlap window.
const overlapIterRef = 50.0

// overlapCap bounds how much of the exchange even a long epoch can hide;
// the residue reproduces the visible EXCHANGE bars of Figure 10.
const overlapCap = 0.5

// EpochTime models one epoch of synchronous data-parallel SGD with the
// given shuffling strategy on workers ranks of machine mc.
func EpochTime(mc cluster.Machine, w Workload, workers int, strat shuffle.Strategy) (Breakdown, error) {
	if err := w.Validate(); err != nil {
		return Breakdown{}, err
	}
	if err := strat.Validate(); err != nil {
		return Breakdown{}, err
	}
	if workers <= 0 {
		return Breakdown{}, fmt.Errorf("perfmodel: workers must be positive, got %d", workers)
	}
	spw := float64(w.N) / float64(workers) // samples per worker per epoch
	iters := spw / float64(w.LocalBatch)
	if iters < 1 {
		iters = 1
	}
	var b Breakdown
	b.FWBW = spw * w.Model.ComputePerSample

	// Gradient exchange: one ring allreduce of the gradient volume per
	// iteration (2x traffic for reduce-scatter + allgather).
	b.GEWU = iters * 2 * float64(w.Model.ParamBytes) / mc.AllreduceBW

	switch strat.Kind {
	case shuffle.Global:
		// Every worker reads its epoch share from the PFS: per-client rate
		// is the smaller of the client ceiling and an even share of the
		// effective aggregate, plus a metadata operation per sample file.
		rate := math.Min(mc.PFSPerClientBW, mc.PFSEffectiveBW/float64(workers))
		b.IO = spw*float64(w.BytesPerSample)/rate + spw*mc.PFSMetadataCost
		b.IOSlowest = b.IO * (1 + mc.StragglerCoef*math.Sqrt(float64(workers)))
		// Workers wait for each other in the gradient collectives; the
		// slowest reader delays everyone (Section V-F's 70 s GE average).
		b.GEWU += b.IOSlowest - b.IO
	case shuffle.Local, shuffle.PartialLocal, shuffle.Corgi2:
		// Corgi2's steady-state read path is the node-local tier (its PFS
		// miss traffic depends on the cache budget — model that dimension
		// with CachedEpochReadTime).
		localBW := mc.LocalReadBW
		if w.Sequential {
			localBW = mc.LocalSeqBW
		}
		b.IO = spw * float64(w.BytesPerSample) / localBW
		b.IOSlowest = b.IO
		if strat.Kind == shuffle.PartialLocal && strat.Q > 0 {
			k := float64(shuffle.Slots(strat.Q, w.N, workers))
			// Congestion and synchronization scale with the number of
			// independent communication endpoints: the full world for the
			// flat exchange, the group count for the hierarchical one.
			endpoints := float64(workers)
			if w.ExchangeGroupSize > 0 && workers > w.ExchangeGroupSize {
				endpoints = float64(workers) / float64(w.ExchangeGroupSize)
			}
			congest := 1 + mc.ExchangeCongest*math.Log2(endpoints)
			tExch := k*float64(w.BytesPerSample)/(mc.InjectionBW/congest) +
				k*mc.ExchangeLatency*congest +
				endpoints*mc.ExchangeSyncCost
			// Overlap with forward/backward (Figure 4): effectiveness is
			// capped and shrinks when few iterations remain to hide behind.
			overlapEff := overlapCap * math.Min(1, iters/overlapIterRef)
			exposed := math.Max(tExch-overlapEff*b.FWBW, tExch*(1-overlapEff))
			b.Exchange = exposed
		}
	}
	return b, nil
}

// CacheWorkload describes one rank's epoch read through the storage
// hierarchy (the Corgi2 path): EpochBytes of shard files read per epoch,
// in shards of ShardBytes, with CacheBytes of node-local capacity.
type CacheWorkload struct {
	EpochBytes int64
	ShardBytes int64
	CacheBytes int64 // 0 = unlimited (everything hits once it has been read)
	// WindowShards is how many shards the reader pins together; 0 is the
	// trainer's rule, half the cache.
	WindowShards int
	// RedealRanks > 1 re-deals the dataset's shards across that many ranks
	// at every epoch (Corgi2 with one epoch per group); otherwise the rank
	// keeps its shards and only their order changes.
	RedealRanks int
}

// CachedEpochFetches is the expected number of shards a steady-state epoch
// fetches from the PFS through the plan-driven cache tier
// (internal/store/cache): S shards read once each in a fresh order, K
// cache slots, eviction by farthest next read over a plan the tier knows
// to the end of the epoch being read (the trainer announces the next
// epoch as one ends). A shard that has been read is then never-read-again,
// the preferred victim, so from the second window on every admission
// evicts a consumed shard and what the epoch found resident survives to
// its read. The regimes differ in what it finds:
//
//   - same assignment: all K leftovers are read again; only the first
//     window's W·(1−K/S) expected misses have nothing consumed to evict
//     and cost a leftover each: S − K + W·(1 − K/S) fetches.
//   - re-dealt across M ranks: a leftover is in the new share with
//     probability 1/M whatever the cache kept, and the K·(1−1/M) that are
//     not go first: S − K/M fetches (zero once the cache holds the whole
//     dataset, K ≥ M·S).
func CachedEpochFetches(w CacheWorkload) (float64, error) {
	if w.EpochBytes <= 0 || w.ShardBytes <= 0 || w.CacheBytes < 0 || w.WindowShards < 0 {
		return 0, fmt.Errorf("perfmodel: CachedEpochFetches: bad workload %+v", w)
	}
	s := float64(w.EpochBytes) / float64(w.ShardBytes)
	k := float64(w.CacheBytes / w.ShardBytes)
	if w.RedealRanks > 1 {
		if w.CacheBytes == 0 {
			return 0, nil
		}
		return math.Max(0, s-k/float64(w.RedealRanks)), nil
	}
	if w.CacheBytes == 0 || k >= s {
		return 0, nil
	}
	win := float64(w.WindowShards)
	if win == 0 {
		win = math.Max(1, math.Floor(k/2))
	}
	return s - k + math.Min(win, s)*(1-k/s), nil
}

// CachedEpochReadTime models one steady-state epoch's read time through
// the two-tier hierarchy: CachedEpochFetches whole shards re-fetch from
// the PFS at the per-client rate plus a metadata operation per shard, the
// rest of the epoch streams at the node-local sequential rate.
func CachedEpochReadTime(mc cluster.Machine, w CacheWorkload) (float64, error) {
	missShards, err := CachedEpochFetches(w)
	if err != nil {
		return 0, err
	}
	missBytes := missShards * float64(w.ShardBytes)
	t := (float64(w.EpochBytes) - missBytes) / mc.LocalSeqBW
	t += missBytes/mc.PFSPerClientBW + missShards*mc.PFSMetadataCost
	return t, nil
}

// PFSLowerBound returns the paper's Figure 7b red line: the minimum epoch
// time for PFS-based global shuffling, datasetBytes / PFS theoretical peak.
func PFSLowerBound(mc cluster.Machine, datasetBytes int64) float64 {
	return float64(datasetBytes) / mc.PFSPeakBW
}

// StorageRequired returns the per-worker bytes each strategy needs
// (Section III-A): GS must reach the full dataset, LS stores N/M, PLS
// peaks at (1+Q)·N/M.
func StorageRequired(w Workload, workers int, strat shuffle.Strategy) int64 {
	totalBytes := int64(w.N) * w.BytesPerSample
	perWorker := totalBytes / int64(workers)
	switch strat.Kind {
	case shuffle.Global:
		return totalBytes
	case shuffle.Local:
		return perWorker
	default:
		return int64(float64(perWorker) * (1 + strat.Q))
	}
}

// FitsLocalStorage reports whether the strategy's storage requirement fits
// the machine's per-worker dedicated capacity — the feasibility check that
// rules out GS for DeepCAM on ABCI and everything beyond ~50 GB on Fugaku.
func FitsLocalStorage(mc cluster.Machine, w Workload, workers int, strat shuffle.Strategy) bool {
	return StorageRequired(w, workers, strat) <= mc.LocalSSDBytes
}
