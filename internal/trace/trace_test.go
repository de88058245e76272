package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndEventsOrdering(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Rank: 1, Epoch: 0, Phase: PhaseIO, Duration: time.Second})
	r.Record(Event{Rank: 0, Epoch: 1, Phase: PhaseFWBW, Duration: time.Second})
	r.Record(Event{Rank: 0, Epoch: 0, Phase: PhaseGEWU, Duration: time.Second})
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Canonical export ordering is (rank, epoch, phase): each rank's
	// timeline is contiguous, epochs ascend within it.
	ev := r.Events()
	if ev[0].Rank != 0 || ev[0].Epoch != 0 || ev[0].Phase != PhaseGEWU {
		t.Fatalf("ordering wrong: ev[0] = %+v", ev[0])
	}
	if ev[1].Rank != 0 || ev[1].Epoch != 1 {
		t.Fatalf("ordering wrong: ev[1] = %+v", ev[1])
	}
	if ev[2].Rank != 1 || ev[2].Epoch != 0 {
		t.Fatalf("ordering wrong: ev[2] = %+v", ev[2])
	}
}

func TestEventsOrderPhasesWithinEpoch(t *testing.T) {
	r := NewRecorder()
	// Recorded deliberately out of execution order.
	for _, p := range []string{PhaseValidate, PhaseGEWU, PhaseFWBW, PhaseExchange, PhaseIO} {
		r.Record(Event{Rank: 0, Epoch: 0, Phase: p, Duration: time.Second})
	}
	want := []string{PhaseIO, PhaseExchange, PhaseFWBW, PhaseGEWU, PhaseValidate}
	for i, e := range r.Events() {
		if e.Phase != want[i] {
			t.Fatalf("phase[%d] = %s, want %s", i, e.Phase, want[i])
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for e := 0; e < 100; e++ {
				r.Record(Event{Rank: rank, Epoch: e, Phase: PhaseIO, Duration: time.Millisecond})
			}
		}(rank)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("Len = %d, want 800", r.Len())
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Rank: 0, Epoch: 0, Phase: PhaseIO, Duration: time.Second, Bytes: 1234})
	r.Record(Event{Rank: 1, Epoch: 0, Phase: PhaseGEWU, Duration: 2 * time.Second})
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	got, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Bytes != 1234 || got[1].Phase != PhaseGEWU {
		t.Fatalf("roundtrip = %+v", got)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
}
