package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome-trace export: render recorded events in the Trace Event Format
// consumed by chrome://tracing and Perfetto, with one process per rank and
// one thread (track) per phase, so a run's Figure 10 style decomposition
// can be inspected interactively.
//
// The Recorder stores durations, not wall-clock timestamps (ranks record
// whole epochs at a time), so the exporter synthesizes each rank's timeline
// deterministically: events are laid out back-to-back per rank in canonical
// (epoch, phase) order, each phase starting where the previous one on that
// rank ended. Relative proportions — the thing the paper's breakdowns argue
// about — are exact; absolute alignment across ranks is nominal. Because
// the layout is a pure function of the sorted events, the JSON is
// byte-stable and golden-testable.

// chromeEvent is one Trace Event Format record. Only the fields the
// chrome://tracing and Perfetto loaders require are emitted.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes events as Chrome trace JSON. Events may be in any
// order; they are re-sorted into the canonical (rank, epoch, phase) order
// first, so the output depends only on the event set.
func WriteChromeTrace(w io.Writer, events []Event) error {
	sorted := append([]Event(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	// Metadata: name each rank's process and each phase's thread so the
	// viewer shows "rank N" / phase names instead of bare ids. One thread
	// id per distinct phase, shared across ranks, allocated in canonical
	// order.
	ranks := map[int]bool{}
	type phaseKey struct {
		order int
		name  string
	}
	phaseSet := map[phaseKey]bool{}
	for _, e := range sorted {
		ranks[e.Rank] = true
		phaseSet[phaseKey{phaseOrder(e.Phase), e.Phase}] = true
	}
	rankList := make([]int, 0, len(ranks))
	for r := range ranks {
		rankList = append(rankList, r)
	}
	sort.Ints(rankList)
	phases := make([]phaseKey, 0, len(phaseSet))
	for p := range phaseSet {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].order != phases[j].order {
			return phases[i].order < phases[j].order
		}
		return phases[i].name < phases[j].name
	})
	tid := make(map[string]int, len(phases))
	for i, p := range phases {
		tid[p.name] = i
	}
	for _, r := range rankList {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
		for _, p := range phases {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: r, Tid: tid[p.name],
				Args: map[string]any{"name": p.name},
			})
		}
	}

	// Timeline: complete ("X") events laid out back-to-back per rank.
	cursor := map[int]time.Duration{}
	for _, e := range sorted {
		args := map[string]any{"epoch": e.Epoch}
		if e.Bytes != 0 {
			args["bytes"] = e.Bytes
		}
		if e.EffectiveQ != 0 {
			args["effective_q"] = e.EffectiveQ
		}
		start := cursor[e.Rank]
		cursor[e.Rank] = start + e.Duration
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: e.Phase, Cat: "phase", Ph: "X",
			Ts:  float64(start.Nanoseconds()) / 1e3,
			Dur: float64(e.Duration.Nanoseconds()) / 1e3,
			Pid: e.Rank, Tid: tid[e.Phase],
			Args: args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: WriteChromeTrace: %w", err)
	}
	return nil
}
