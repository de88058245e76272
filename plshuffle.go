// Package plshuffle is a Go reproduction of "Why Globally Re-shuffle?
// Revisiting Data Shuffling in Large Scale Deep Learning" (Nguyen et al.,
// IPDPS 2022): dataset partitioning, balanced partial sample exchange
// between data-parallel workers (Algorithm 1), and the epoch scheduler
// that overlaps the exchange with training — together with every substrate
// the study needs (an in-process MPI-like runtime, a small neural-network
// stack, synthetic dataset proxies, storage accounting, machine models,
// and the Section IV-B shuffling-error analysis).
//
// This package is the README's quick-start surface: the three shuffling
// strategies the paper compares, a synthetic dataset, a model, and one
// training run.
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
// Everything else — multi-process TCP worlds, the corgi2 on-disk store,
// checkpoints, telemetry, the paper's tables and figures — is reached
// through the commands under cmd/ (see README.md). See DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record of
// every regenerated table and figure.
package plshuffle

import (
	"plshuffle/internal/data"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
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

// Dataset is an in-memory dataset with a train/validation split.
type Dataset = data.Dataset

// DatasetSpec configures the synthetic Gaussian-mixture generator.
type DatasetSpec = data.SyntheticSpec

// GenerateDataset builds a synthetic dataset from the spec.
func GenerateDataset(spec DatasetSpec) (*Dataset, error) { return data.Generate(spec) }

// ModelSpec describes an MLP proxy model; bind it to a dataset with
// WithData before training.
type ModelSpec = nn.ModelSpec

// MLP returns a plain single-hidden-layer model spec (no batch norm).
func MLP(name string, hidden int) ModelSpec {
	return ModelSpec{Name: name, Hidden: []int{hidden}}
}

// TrainConfig configures one distributed training run.
type TrainConfig = train.Config

// TrainResult aggregates a run: per-epoch accuracy/loss/phase accounting,
// final and best validation accuracy, and the peak per-worker storage.
type TrainResult = train.Result

// Train runs distributed synchronous SGD with the configured shuffling
// strategy, one goroutine per worker, averaging gradients with a ring
// allreduce each iteration.
func Train(cfg TrainConfig) (*TrainResult, error) { return train.Run(cfg) }
