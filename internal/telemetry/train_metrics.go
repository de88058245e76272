package telemetry

import (
	"strconv"
	"time"
)

// TrainMetrics is the bundle of atomic series the training loop updates on
// its hot path, and the one home of the trainer's clocked time and gradient
// wire bytes (DESIGN.md §11): every interval is added to exactly one counter
// here, and train.EpochStats, the trace events and the final report are
// differences of these counters. Every field is a plain atomic word: the
// per-iteration cost is a handful of uncontended atomic adds and stores —
// 0 allocs/op, guarded by the trainer's alloc-regression tests.
//
// The trainer always holds one (no registry lookups at runtime); Register,
// which is optional, binds each field into a Registry under the canonical
// metric names (DESIGN.md §11's name registry) with a rank label.
type TrainMetrics struct {
	// Progress. Epoch/Iteration are the positions currently being
	// trained; EpochsTotal is the configured horizon.
	Epoch       Gauge
	Iteration   Gauge
	EpochsTotal Gauge
	// Samples counts training samples consumed (batch size per
	// iteration, summed).
	Samples Counter

	// Cumulative per-phase wall-clock, in nanoseconds (exported as
	// seconds), accumulated live, iteration by iteration (validation once
	// per epoch). An epoch's EpochStats times are these counters' growth
	// between two epoch closes.
	IONs, ExchangeNs, FWBWNs, GEWUNs, ValidateNs Counter
	// GEWUWaitNs is the EXPOSED portion of the gradient exchange (blocked
	// in Wait); GEWUCommNs the total in-flight time. Their live ratio is
	// the overlap efficiency an operator watches during a run.
	GEWUWaitNs, GEWUCommNs Counter

	// Exact wire volume of the gradient all-reduce (sent + received frame
	// bytes, zero on inproc); EpochStats.GradWireBytes is its per-epoch
	// growth.
	GradWireBytes Counter

	// ArenaBytes is the capacity of the rank's step arena (DESIGN.md
	// §14.4): what one training step or eval batch holds at its peak.
	ArenaBytes Gauge
	// OptimizerStateBytes is what the rank's optimizer moments hold: its
	// own chunk of the parameters under sharded SGD (DESIGN.md §9), all of
	// them under LARS.
	OptimizerStateBytes Gauge

	// Elastic-world shape (DESIGN.md §15): the collective group's current
	// member count and the membership generation (bumped by every shrink or
	// join). WorldSize tracks GroupSize, not the rank name space.
	WorldSize  Gauge
	Generation Gauge
	// Checkpoint accounting: snapshots committed by this rank, cumulative
	// wall-clock spent encoding+writing them, and cumulative snapshot bytes.
	CheckpointWrites Counter
	CheckpointNs     Counter
	CheckpointBytes  Counter

	// start anchors the lifetime samples/sec gauge.
	start time.Time
}

// Register binds the bundle into reg under the canonical train_* names with
// a rank label. Call once per (registry, rank).
func (m *TrainMetrics) Register(reg *Registry, rank int) {
	m.start = time.Now()
	l := rankLabel(rank)
	reg.GaugeFunc("pls_train_epoch", "Epoch currently being trained on this rank.", l,
		func() float64 { return m.Epoch.Load() })
	reg.GaugeFunc("pls_train_iteration", "Iteration of the current epoch being trained.", l,
		func() float64 { return m.Iteration.Load() })
	reg.GaugeFunc("pls_train_epochs_total", "Configured number of training epochs.", l,
		func() float64 { return m.EpochsTotal.Load() })
	reg.CounterFunc("pls_train_samples_total", "Training samples consumed.", l,
		func() float64 { return float64(m.Samples.Load()) })
	reg.GaugeFunc("pls_train_samples_per_second", "Lifetime mean training throughput.", l,
		func() float64 {
			el := time.Since(m.start).Seconds()
			if el <= 0 {
				return 0
			}
			return float64(m.Samples.Load()) / el
		})
	phase := func(name string, c *Counter, p string) {
		lp := Labels{"rank": l["rank"], "phase": p}
		reg.CounterFunc(name, "Cumulative wall-clock spent in each training phase, seconds.", lp,
			func() float64 { return float64(c.Load()) / 1e9 })
	}
	phase("pls_train_phase_seconds_total", &m.IONs, "io")
	phase("pls_train_phase_seconds_total", &m.ExchangeNs, "exchange")
	phase("pls_train_phase_seconds_total", &m.FWBWNs, "fwbw")
	phase("pls_train_phase_seconds_total", &m.GEWUNs, "gewu")
	phase("pls_train_phase_seconds_total", &m.ValidateNs, "validate")
	reg.CounterFunc("pls_train_gewu_wait_seconds_total",
		"Exposed (blocked-in-Wait) portion of the gradient exchange, seconds.", l,
		func() float64 { return float64(m.GEWUWaitNs.Load()) / 1e9 })
	reg.CounterFunc("pls_train_gewu_comm_seconds_total",
		"Total in-flight wall-clock of the gradient all-reduce, seconds.", l,
		func() float64 { return float64(m.GEWUCommNs.Load()) / 1e9 })
	reg.CounterFunc("pls_train_grad_wire_bytes_total",
		"Exact wire bytes moved by the gradient all-reduce (sent+recv, frame headers included).", l,
		func() float64 { return float64(m.GradWireBytes.Load()) })
	reg.GaugeFunc("pls_train_arena_bytes", "Capacity of this rank's training-step arena, bytes.", l,
		func() float64 { return m.ArenaBytes.Load() })
	reg.GaugeFunc("pls_train_optimizer_state_bytes", "Bytes of optimizer moments this rank holds.", l,
		func() float64 { return m.OptimizerStateBytes.Load() })
	reg.GaugeFunc("pls_world_size", "Live members of the collective group (shrinks on failure, grows on join).", l,
		func() float64 { return m.WorldSize.Load() })
	reg.GaugeFunc("pls_world_generation", "Membership generation: re-formations of the collective group (shrink or grow).", l,
		func() float64 { return m.Generation.Load() })
	reg.CounterFunc("pls_checkpoint_writes_total", "Checkpoint snapshots committed by this rank.", l,
		func() float64 { return float64(m.CheckpointWrites.Load()) })
	reg.CounterFunc("pls_checkpoint_seconds_total", "Cumulative wall-clock spent encoding and writing checkpoints, seconds.", l,
		func() float64 { return float64(m.CheckpointNs.Load()) / 1e9 })
	reg.CounterFunc("pls_checkpoint_bytes_total", "Cumulative snapshot image bytes committed by this rank.", l,
		func() float64 { return float64(m.CheckpointBytes.Load()) })
}

// rankLabel renders the shared {rank="N"} label set.
func rankLabel(rank int) Labels {
	return Labels{"rank": strconv.Itoa(rank)}
}
