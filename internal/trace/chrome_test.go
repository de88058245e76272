package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the Chrome-trace golden file from the current exporter output")

// goldenEvents is a small two-rank, two-epoch run with out-of-order
// recording, a degraded epoch, and every optional field exercised.
func goldenEvents() []Event {
	return []Event{
		{Rank: 1, Epoch: 0, Phase: PhaseFWBW, Duration: 4 * time.Millisecond},
		{Rank: 0, Epoch: 1, Phase: PhaseExchange, Duration: 1500 * time.Microsecond, Bytes: 2048},
		{Rank: 0, Epoch: 0, Phase: PhaseIO, Duration: 2 * time.Millisecond, Bytes: 4096},
		{Rank: 0, Epoch: 0, Phase: PhaseGEWU, Duration: 500 * time.Microsecond, Bytes: 256},
		{Rank: 0, Epoch: 0, Phase: PhaseFWBW, Duration: 3 * time.Millisecond},
		{Rank: 1, Epoch: 0, Phase: PhaseDegraded, Duration: 0, Bytes: 2, EffectiveQ: 0.125},
		{Rank: 1, Epoch: 1, Phase: PhaseIO, Duration: time.Millisecond, Bytes: 4096},
	}
}

// TestChromeTraceGolden pins the exporter's exact output: the trace JSON is
// a pure function of the event set (canonical sorting + deterministic
// back-to-back layout), so any byte change is a deliberate format change —
// update with go test ./internal/trace/ -update-golden.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace drifted from golden %s.\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

// TestChromeTraceOrderInvariant pins determinism directly: shuffling the
// recording order must not change a single output byte.
func TestChromeTraceOrderInvariant(t *testing.T) {
	evs := goldenEvents()
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, evs); err != nil {
		t.Fatal(err)
	}
	rev := make([]Event, len(evs))
	for i, e := range evs {
		rev[len(evs)-1-i] = e
	}
	if err := WriteChromeTrace(&b, rev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export depends on recording order; must be a pure function of the event set")
	}
}

// TestChromeTraceShape decodes the export and checks the structural
// contract the viewers rely on: per-rank process metadata, per-phase thread
// metadata, X events with non-overlapping back-to-back intervals per rank,
// and args carrying epoch/bytes/effective_q.
func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder()
	for _, e := range goldenEvents() {
		rec.Record(e)
	}
	if err := WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", out.DisplayTimeUnit)
	}
	procs := map[int]bool{}
	cursor := map[int]float64{}
	var xEvents, degraded int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procs[e.Pid] = true
			}
		case "X":
			xEvents++
			if e.Ts < cursor[e.Pid] {
				t.Errorf("rank %d event %q starts at %v before cursor %v (overlap)", e.Pid, e.Name, e.Ts, cursor[e.Pid])
			}
			cursor[e.Pid] = e.Ts + e.Dur
			if _, ok := e.Args["epoch"]; !ok {
				t.Errorf("X event %q missing epoch arg", e.Name)
			}
			if e.Name == PhaseDegraded {
				degraded++
				if q, ok := e.Args["effective_q"].(float64); !ok || q != 0.125 {
					t.Errorf("degraded event effective_q = %v, want 0.125", e.Args["effective_q"])
				}
			}
		default:
			t.Errorf("unexpected phase type %q", e.Ph)
		}
	}
	if !procs[0] || !procs[1] {
		t.Errorf("process metadata missing ranks: %v", procs)
	}
	if want := len(goldenEvents()); xEvents != want {
		t.Errorf("exported %d X events, want %d", xEvents, want)
	}
	if degraded != 1 {
		t.Errorf("exported %d degraded events, want 1", degraded)
	}
}
