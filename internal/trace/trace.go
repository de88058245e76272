// Package trace records structured per-phase events from distributed
// training runs — the instrumentation behind the Figure 10 style
// breakdowns. Workers emit one event per (epoch, phase) with duration and
// byte volume; the recorder aggregates them and can export JSON Lines for
// external analysis.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Phase names used by the trainer, matching Figure 10's decomposition.
const (
	PhaseIO       = "io"
	PhaseExchange = "exchange"
	PhaseFWBW     = "fwbw"
	PhaseGEWU     = "gewu"
	PhaseValidate = "validate"
	// PhaseCheckpoint is the snapshot committed at an epoch's boundary;
	// recorded only for epochs that wrote one.
	PhaseCheckpoint = "checkpoint"
	// PhaseDegraded marks an epoch a peer death disrupted (DESIGN.md §10);
	// EffectiveQ is the fraction its exchange realized.
	PhaseDegraded = "degraded"
)

// Event is one recorded phase execution.
type Event struct {
	Rank     int           `json:"rank"`
	Epoch    int           `json:"epoch"`
	Phase    string        `json:"phase"`
	Duration time.Duration `json:"duration_ns"`
	Bytes    int64         `json:"bytes,omitempty"`
	// EffectiveQ is the realized shuffling fraction of a PhaseDegraded
	// event: the plan's Q if the exchange committed, 0 if it was reset.
	EffectiveQ float64 `json:"effective_q,omitempty"`
}

// Recorder collects events from concurrent workers. The zero value is not
// usable; create recorders with NewRecorder. All methods are safe for
// concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends an event.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// phaseOrder ranks the trainer's phases in execution order within an epoch
// — the canonical tiebreak for exports and the layout order of the Chrome
// trace timeline. Unknown phases sort after the known ones, alphabetically.
func phaseOrder(phase string) int {
	switch phase {
	case PhaseIO:
		return 0
	case PhaseExchange:
		return 1
	case PhaseFWBW:
		return 2
	case PhaseGEWU:
		return 3
	case PhaseValidate:
		return 4
	case PhaseCheckpoint:
		return 5
	case PhaseDegraded:
		return 6
	default:
		return 7
	}
}

// less is the canonical deterministic event ordering: (rank, epoch, phase),
// with phases in execution order. Grouping by rank first keeps each rank's
// timeline contiguous, so JSONL exports diff cleanly run-to-run and
// rank-by-rank — golden tests and diff-based tooling depend on it.
func less(a, b Event) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if pa, pb := phaseOrder(a.Phase), phaseOrder(b.Phase); pa != pb {
		return pa < pb
	}
	return a.Phase < b.Phase
}

// Events returns a copy of all recorded events in the canonical (rank,
// epoch, phase) order — deterministic regardless of goroutine interleaving,
// so every export built on it (JSONL, Chrome trace) is byte-stable.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// WriteJSONL writes one JSON object per event.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: WriteJSONL: %w", err)
		}
	}
	return nil
}

// ReadJSONL parses events written by WriteJSONL.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	var out []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("trace: ReadJSONL: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}
