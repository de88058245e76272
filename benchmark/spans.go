package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around the calls into each layer; counts taken
// at the same boundary (bytes, frames, allocs) ride in Counts.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"` // 0 = root
	Name     string           `json:"name"`
	Layer    string           `json:"layer"`
	Workload string           `json:"workload"`
	Run      int              `json:"run"`
	Rank     int              `json:"rank"` // -1 = not rank-scoped
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil *spanLog
// records nothing, which is how the timed (untraced) runs are kept free of
// tracing cost.
type spanLog struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(parent int, name, layer string, run, rank int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: l.workload, Run: run, Rank: rank, StartNS: time.Since(l.epoch).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int, counts map[string]int64) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNS = time.Since(l.epoch).Nanoseconds()
	l.spans[id-1].Counts = counts
}

// write dumps the spans as one JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
