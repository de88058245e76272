// Package plshuffle is a Go reproduction of "Why Globally Re-shuffle?
// Revisiting Data Shuffling in Large Scale Deep Learning" (Nguyen et al.,
// IPDPS 2022): dataset partitioning, balanced partial sample exchange
// between data-parallel workers (Algorithm 1), and the epoch scheduler
// that overlaps the exchange with training — together with every substrate
// the study needs (an in-process MPI-like runtime, a small neural-network
// stack, synthetic dataset proxies, storage accounting, machine models,
// and the Section IV-B shuffling-error analysis).
//
// The three shuffling strategies compared by the paper:
//
//   - Global(): every epoch draws a fresh global permutation of the whole
//     dataset (PyTorch DistributedSampler's default). Requires every
//     sample to be reachable by every worker.
//   - Local(): workers keep their initial partition forever and only
//     re-shuffle locally — no inter-worker sample traffic at all.
//   - Partial(q): before each epoch every worker exchanges the fraction q
//     of its local samples with randomly chosen peers; the shared-seed
//     per-slot rank permutations make the exchange perfectly balanced,
//     and peak local storage is bounded by (1+q)·N/M.
//   - Corgi2(g): the hybrid offline/online follow-up — samples live in an
//     immutable sharded on-disk store (IngestDataset), shard-to-rank
//     assignments reshuffle every g epochs (offline, paid in PFS refetches
//     instead of peer traffic), and each epoch shuffles samples online
//     within cache-sized shard windows streamed through a bounded
//     node-local cache tier.
//
// Quick start:
//
//	ds, _ := plshuffle.GenerateDataset(plshuffle.DatasetSpec{
//	    Name: "demo", NumSamples: 2048, NumVal: 512,
//	    Classes: 16, FeatureDim: 24, ClassSep: 4, NoiseStd: 1, Seed: 1,
//	})
//	model := plshuffle.MLP("demo", 64).WithData(ds.FeatureDim, ds.Classes)
//	res, _ := plshuffle.Train(plshuffle.TrainConfig{
//	    Workers: 8, Strategy: plshuffle.Partial(0.1), Dataset: ds,
//	    Model: model, Epochs: 10, BatchSize: 16, BaseLR: 0.1,
//	    Momentum: 0.9, Seed: 42,
//	})
//	fmt.Println("top-1:", res.FinalValAcc)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every regenerated table and figure.
package plshuffle

import (
	"io"

	"plshuffle/internal/analysis"
	"plshuffle/internal/cluster"
	"plshuffle/internal/data"
	"plshuffle/internal/eventsim"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/perfmodel"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store"
	"plshuffle/internal/store/shard"
	"plshuffle/internal/telemetry"
	"plshuffle/internal/trace"
	"plshuffle/internal/train"
)

// Strategy selects a shuffling scheme (global, local, or partial-local
// with an exchange fraction Q).
type Strategy = shuffle.Strategy

// Global returns the global-shuffling baseline strategy.
func Global() Strategy { return shuffle.GlobalShuffling() }

// Local returns the pure local-shuffling strategy (Q = 0).
func Local() Strategy { return shuffle.LocalShuffling() }

// Partial returns the paper's partial local shuffling with exchange
// fraction q in [0, 1].
func Partial(q float64) Strategy { return shuffle.Partial(q) }

// Corgi2 returns the hybrid offline/online shuffling strategy: shard
// assignments reshuffle across ranks every groupEpochs epochs, and samples
// shuffle online within cache-sized shard windows. It trains from an
// ingested on-disk dataset (set TrainConfig.DataDir) through a bounded
// node-local cache tier (TrainConfig.CacheBytes).
func Corgi2(groupEpochs int) Strategy { return shuffle.Corgi2Shuffling(groupEpochs) }

// Sample is one training example with a simulated on-disk byte size.
type Sample = data.Sample

// Dataset is an in-memory dataset with a train/validation split.
type Dataset = data.Dataset

// DatasetSpec configures the synthetic Gaussian-mixture generator.
type DatasetSpec = data.SyntheticSpec

// DatasetInfo is a Table I registry entry (real metadata + proxy spec).
type DatasetInfo = data.DatasetInfo

// GenerateDataset builds a synthetic dataset from the spec.
func GenerateDataset(spec DatasetSpec) (*Dataset, error) { return data.Generate(spec) }

// ProxyDataset generates the scaled-down proxy for one of the paper's
// datasets: "imagenet-1k", "imagenet-50", "imagenet-21k", "cifar-100",
// "stanford-cars", or "deepcam".
func ProxyDataset(key string) (*Dataset, error) { return data.LoadProxy(key) }

// PaperDatasets lists the Table I registry keys.
func PaperDatasets() []string { return data.DatasetKeys() }

// PaperDatasetInfo returns the Table I entry for a registry key.
func PaperDatasetInfo(key string) (DatasetInfo, error) { return data.Info(key) }

// ModelSpec describes an MLP proxy model (see the nn package for the
// architecture mapping).
type ModelSpec = nn.ModelSpec

// Param is a flat view of one learnable tensor and its gradient.
type Param = nn.Param

// Schedule maps training progress (fractional epochs) to a learning rate.
type Schedule = nn.Schedule

// NormKind selects the normalization layer of a model spec.
type NormKind = nn.Norm

// Normalization choices: batch norm (the paper's architectures), group
// norm (the Section IV-A.1 alternative, immune to shard bias), or none.
const (
	NormBatch = nn.NormBatch
	NormGroup = nn.NormGroup
	NormNone  = nn.NormNone
)

// ProxyModel returns the proxy spec for one of the paper's architectures:
// "resnet50", "densenet161", "wideresnet28", "inceptionv4", "deepcam", or
// "mlp". Bind it to a dataset with WithData before training.
func ProxyModel(name string) (ModelSpec, error) { return nn.ProxySpec(name) }

// MLP returns a plain single-hidden-layer model spec (no batch norm).
func MLP(name string, hidden int) ModelSpec {
	return ModelSpec{Name: name, Hidden: []int{hidden}}
}

// TransferWeights copies weights between parameter sets wherever shapes
// match (the transfer-learning initializer used by the Figure 8
// experiment). It returns the number of tensors transferred.
func TransferWeights(dst, src []Param) int { return nn.TransferWeights(dst, src) }

// Model is a built network (a sequential stack of layers).
type Model = nn.Sequential

// SaveWeights writes a model checkpoint (weights plus batch-norm running
// statistics) in a stable binary format.
func SaveWeights(w io.Writer, model *Model) error { return nn.SaveWeights(w, model) }

// LoadWeights restores a checkpoint written by SaveWeights into a model of
// the identical architecture.
func LoadWeights(r io.Reader, model *Model) error { return nn.LoadWeights(r, model) }

// TrainConfig configures one distributed training run.
type TrainConfig = train.Config

// TrainResult aggregates a run: per-epoch accuracy/loss/phase accounting,
// final and best validation accuracy, and the peak per-worker storage.
type TrainResult = train.Result

// EpochStats records one epoch's outcome.
type EpochStats = train.EpochStats

// Train runs distributed synchronous SGD with the configured shuffling
// strategy, one goroutine per worker, averaging gradients with a ring
// allreduce each iteration.
func Train(cfg TrainConfig) (*TrainResult, error) { return train.Run(cfg) }

// TraceRecorder collects per-phase training events (set TrainConfig.Trace
// to capture the Figure 10 style breakdown of a run).
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded phase execution.
type TraceEvent = trace.Event

// NewTraceRecorder returns an empty trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// WriteChromeTrace renders recorded events as Chrome trace-event JSON
// (load the output in chrome://tracing or https://ui.perfetto.dev).
func WriteChromeTrace(w io.Writer, rec *TraceRecorder) error {
	return trace.WriteChromeTrace(w, rec.Events())
}

// --- Live telemetry (DESIGN.md §11) ---

// TelemetryRegistry is a set of live Prometheus-style metrics. Pass one as
// TrainConfig.Telemetry to have the trainer register and update its
// progress, phase-time, and wire counters; serve it with NewTelemetryServer.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry returns an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// TelemetryServerConfig configures a telemetry HTTP server.
type TelemetryServerConfig = telemetry.ServerConfig

// TelemetryServer serves /metrics (Prometheus text), /trace (Chrome JSON +
// JSONL), /healthz, and /debug/pprof for a live run.
type TelemetryServer = telemetry.Server

// NewTelemetryServer starts a telemetry HTTP server; Close stops it.
func NewTelemetryServer(cfg TelemetryServerConfig) (*TelemetryServer, error) {
	return telemetry.NewServer(cfg)
}

// --- Performance model (Figures 7b, 9, 10) ---

// Machine holds a platform's calibrated performance parameters.
type Machine = cluster.Machine

// ABCI returns the AI Bridging Cloud Infrastructure machine model.
func ABCI() Machine { return cluster.ABCI() }

// Fugaku returns the Fugaku machine model.
func Fugaku() Machine { return cluster.Fugaku() }

// Workload describes a training configuration for the performance model.
type Workload = perfmodel.Workload

// EpochBreakdown is the Figure 10 phase decomposition of one epoch.
type EpochBreakdown = perfmodel.Breakdown

// ModelProfile carries a network's gradient volume and per-sample compute
// time for the performance model.
type ModelProfile = perfmodel.ModelProfile

// PerfProfile returns the performance profile for one of the paper's
// models.
func PerfProfile(name string) (ModelProfile, error) { return perfmodel.Profile(name) }

// EpochTime models one epoch of the workload on the machine with the
// given worker count and strategy.
func EpochTime(mc Machine, w Workload, workers int, s Strategy) (EpochBreakdown, error) {
	return perfmodel.EpochTime(mc, w, workers, s)
}

// CacheWorkload describes one epoch's storage traffic for the cache-tier
// read model.
type CacheWorkload = perfmodel.CacheWorkload

// CachedEpochReadTime models one epoch's sample-read time through a
// node-local cache of the given size over the machine's PFS: the cached
// fraction streams at local sequential bandwidth, the rest pays the
// per-client PFS rate plus a metadata cost per missed shard.
func CachedEpochReadTime(mc Machine, w CacheWorkload) (float64, error) {
	return perfmodel.CachedEpochReadTime(mc, w)
}

// SimConfig configures a discrete-event epoch simulation.
type SimConfig = eventsim.Config

// SimResult is a simulated epoch's phase decomposition.
type SimResult = eventsim.Result

// SimulateEpoch plays out one training epoch event by event: shared-PFS
// contention, heavy-tailed request jitter, fat-tree exchange bandwidth,
// and allreduce barriers. Stragglers and congestion emerge from the
// mechanics instead of being fitted — an independent cross-check of
// EpochTime (see the "eventsim" experiment).
func SimulateEpoch(cfg SimConfig) (SimResult, error) { return eventsim.SimulateEpoch(cfg) }

// PFSLowerBound returns the minimum epoch time of PFS-based global
// shuffling (dataset bytes over the PFS theoretical peak) — the red line
// of Figure 7(b).
func PFSLowerBound(mc Machine, datasetBytes int64) float64 {
	return perfmodel.PFSLowerBound(mc, datasetBytes)
}

// StorageRequired returns the per-worker storage a strategy needs.
func StorageRequired(w Workload, workers int, s Strategy) int64 {
	return perfmodel.StorageRequired(w, workers, s)
}

// FitsLocalStorage reports whether the strategy's storage requirement fits
// the machine's per-worker dedicated capacity.
func FitsLocalStorage(mc Machine, w Workload, workers int, s Strategy) bool {
	return perfmodel.FitsLocalStorage(mc, w, workers, s)
}

// --- Shuffling-error analysis (Section IV-B) ---

// ShufflingError returns ε(A,h,N) for partial local shuffling with
// fraction q on n samples over m workers (corrected permutation count,
// clamped to [0,1]).
func ShufflingError(n, m int, q float64) (float64, error) {
	return analysis.ShufflingError(n, m, q)
}

// ShufflingErrorPaper evaluates the paper's Equation 9 verbatim (clamped);
// see internal/analysis for the documented overcount at small m.
func ShufflingErrorPaper(n, m int, q float64) (float64, error) {
	return analysis.ShufflingErrorPaper(n, m, q)
}

// DominationThreshold returns sqrt(b·m/n): shuffling errors above it
// dominate the Equation 6 convergence bound.
func DominationThreshold(n, m, b int) float64 {
	return analysis.DominationThreshold(n, m, b)
}

// ConvergenceBound evaluates the three Equation 6 terms.
func ConvergenceBound(n, m, b, epochs int, eps float64) (analysis.BoundTerms, error) {
	return analysis.ConvergenceBound(n, m, b, epochs, eps)
}

// --- Lower-level building blocks for custom pipelines ---

// World is an in-process set of message-passing ranks.
type World = mpi.World

// Comm is one rank's communicator endpoint.
type Comm = mpi.Comm

// NewWorld creates a message-passing world with the given rank count.
func NewWorld(size int) *World { return mpi.NewWorld(size) }

// RunWorkers runs fn once per rank, each in its own goroutine, and joins
// their errors (aborting all ranks if one fails).
func RunWorkers(n int, fn func(c *Comm) error) error { return mpi.Run(n, fn) }

// LocalStore is one worker's capacity-accounted sample storage area.
type LocalStore = store.Local

// NewLocalStore creates a store with the given byte capacity (0 =
// unlimited).
func NewLocalStore(capacity int64) *LocalStore { return store.NewLocal(capacity) }

// ShardManifest describes an ingested on-disk sharded dataset: shard
// layout, per-shard file sizes, and the sample→shard arithmetic.
type ShardManifest = shard.Manifest

// ShardDataset is an opened ingested dataset directory — the slow "PFS"
// tier the Corgi2 cache streams shards from.
type ShardDataset = shard.Dataset

// IngestDataset writes ds into dir as an immutable sharded on-disk dataset
// (checksummed shard files plus a manifest; cmd/plsingest's engine).
func IngestDataset(dir string, ds *Dataset, samplesPerShard int) (*ShardManifest, error) {
	return shard.Ingest(dir, ds, samplesPerShard)
}

// OpenShardDataset opens a dataset directory written by IngestDataset.
func OpenShardDataset(dir string) (*ShardDataset, error) { return shard.OpenDataset(dir) }

// Scheduler drives the per-epoch sample exchange for one worker
// (Scheduling → Communicate → Synchronize → CleanLocalStorage).
type Scheduler = shuffle.Scheduler

// NewScheduler creates an exchange scheduler for one worker.
func NewScheduler(c *Comm, st *LocalStore, q float64, totalN int, seed uint64) (*Scheduler, error) {
	return shuffle.NewScheduler(c, st, q, totalN, seed)
}

// Partition splits sample IDs [0, n) across m workers with a shared-seed
// random permutation (Figure 2).
func Partition(n, m int, seed uint64) ([][]int, error) { return shuffle.Partition(n, m, seed) }

// ExchangePlan is one worker's per-epoch exchange plan (Algorithm 1).
type ExchangePlan = shuffle.ExchangePlan

// PlanExchange computes rank's balanced exchange plan for an epoch
// (Algorithm 1: shared-seed per-slot rank permutations).
func PlanExchange(rank, size int, localIDs []int, q float64, totalN int, seed uint64, epoch int) (ExchangePlan, error) {
	return shuffle.PlanExchange(rank, size, localIDs, q, totalN, seed, epoch)
}

// WeightedOrder orders ids by importance-weighted random ranking
// (Gumbel-top-k), the Section IV-B importance-sampling extension.
func WeightedOrder(ids []int, weights map[int]float64, seed uint64, epoch, rank int) []int {
	return shuffle.WeightedOrder(ids, weights, seed, epoch, rank)
}
