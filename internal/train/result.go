package train

import (
	"time"

	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store/cache"
)

// EpochStats records one epoch's outcome and phase accounting. Its durations
// and GradWireBytes are not counted here: they are the growth of the rank's
// cumulative counters (telemetry.TrainMetrics — the same words /metrics
// serves) between the previous epoch's close and this one's, so summed over
// a run they equal the scraped totals and the trace events exactly
// (DESIGN.md §11). An epoch cut short by a peer death (Disrupted) reports the
// partial times it accumulated.
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
	// ValidateTime is the sharded evaluation after the epoch (zero when the
	// epoch was disrupted before validating). CheckpointTime is the snapshot
	// encode + write + agreement + commit at the epoch's boundary, including
	// a post-recovery snapshot (zero when none was due).
	ValidateTime, CheckpointTime time.Duration
	// EffectiveQ is the shuffling fraction the epoch actually realized: the
	// Q its exchange plan was drawn at when the exchange committed, 0 when a
	// peer death reset it (and for a Skipped epoch). Meaningful only for the
	// partial-local strategy (zero otherwise).
	EffectiveQ float64
	// ControllerQ is the exchange fraction this epoch actually planned with
	// — the controller's (or the schedule hook's) trajectory, scrape-able
	// live as pls_controller_q. Zero when neither is in force.
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
	// results (the whole ring with the single-bucket plan; only the drain
	// with OverlapGrads). GEWUCommTime is the TOTAL wall-clock the gradient
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
