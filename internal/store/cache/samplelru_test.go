package cache

import (
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/rng"
)

func lruSample(id, nfeat int) data.Sample {
	fs := make([]float32, nfeat)
	for i := range fs {
		fs[i] = float32(id) + float32(i)*0.5
	}
	return data.Sample{ID: id, Label: id % 7, Features: fs, Bytes: 1024}
}

func TestSampleLRUBasics(t *testing.T) {
	s := lruSample(1, 4)
	budget := 3 * int64(s.WireSize())
	c := NewSampleLRU(budget, true)
	for id := 1; id <= 3; id++ {
		c.Note(lruSample(id, 4))
	}
	if c.Len() != 3 || c.Bytes() != budget {
		t.Fatalf("after 3 notes: len=%d bytes=%d budget=%d", c.Len(), c.Bytes(), budget)
	}
	// Touching 1 makes it MRU; noting 4 must evict 2 (now LRU).
	if !c.Touch(1) {
		t.Fatalf("Touch(1) missed")
	}
	c.Note(lruSample(4, 4))
	if c.Has(2) {
		t.Fatalf("expected LRU entry 2 evicted")
	}
	for _, id := range []int64{1, 3, 4} {
		if !c.Has(id) {
			t.Fatalf("expected %d cached", id)
		}
	}
	got, ok := c.Get(1)
	if !ok || got.ID != 1 || len(got.Features) != 4 {
		t.Fatalf("Get(1) = %+v, %v", got, ok)
	}
	if c.Touch(99) {
		t.Fatalf("Touch on a missing id reported a hit")
	}
}

// TestSampleLRUSharesNotedSample: the segment keeps the decoded sample it
// was given — the feature array the store holds too — instead of a copy;
// decoded features are never written (data.Sample).
func TestSampleLRUSharesNotedSample(t *testing.T) {
	c := NewSampleLRU(1<<20, true)
	s := lruSample(5, 4)
	c.Note(s)
	got, ok := c.Get(5)
	if !ok || &got.Features[0] != &s.Features[0] || len(got.Features) != len(s.Features) {
		t.Fatalf("Get(5) = %+v, %v: want the noted sample's own feature array", got, ok)
	}
}

// TestSampleLRUOversized: a sample larger than the whole budget is not
// cached but evicts nothing it shouldn't.
func TestSampleLRUOversized(t *testing.T) {
	small := lruSample(1, 2)
	c := NewSampleLRU(int64(small.WireSize()), true)
	c.Note(small)
	c.Note(lruSample(2, 100)) // far over budget: evicts 1, caches nothing
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversized note left len=%d bytes=%d", c.Len(), c.Bytes())
	}
	c.Note(small)
	if !c.Has(1) {
		t.Fatalf("cache unusable after oversized note")
	}
}

// TestSampleLRUMirrorSegmentLockstep is the protocol-critical property:
// a payload-retaining segment and a sizes-only mirror fed the identical
// Note/Touch sequence always hold exactly the same ID set.
func TestSampleLRUMirrorSegmentLockstep(t *testing.T) {
	const budget = 4096
	mirror := NewSampleLRU(budget, false)
	segment := NewSampleLRU(budget, true)
	r := rng.New(42)
	for step := 0; step < 5000; step++ {
		id := int(r.Uint64() % 64)
		if r.Uint64()%3 == 0 {
			hm, hs := mirror.Touch(int64(id)), segment.Touch(int64(id))
			if hm != hs {
				t.Fatalf("step %d: Touch(%d) mirror=%v segment=%v", step, id, hm, hs)
			}
		} else {
			s := lruSample(id, 1+id%13)
			mirror.Note(s)
			segment.Note(s)
		}
		if mirror.Len() != segment.Len() || mirror.Bytes() != segment.Bytes() {
			t.Fatalf("step %d: mirror len=%d/%dB segment len=%d/%dB",
				step, mirror.Len(), mirror.Bytes(), segment.Len(), segment.Bytes())
		}
	}
	for id := int64(0); id < 64; id++ {
		if mirror.Has(id) != segment.Has(id) {
			t.Fatalf("id %d: mirror=%v segment=%v", id, mirror.Has(id), segment.Has(id))
		}
	}
	mirror.Clear()
	segment.Clear()
	if mirror.Len() != 0 || segment.Len() != 0 || mirror.Bytes() != 0 {
		t.Fatalf("Clear left state behind")
	}
}

// TestSampleLRUEvictionOrder pins strict LRU order: the least recently
// noted/touched entry always goes first.
func TestSampleLRUEvictionOrder(t *testing.T) {
	unit := int64(lruSample(0, 4).WireSize())
	c := NewSampleLRU(4*unit, false)
	for id := 0; id < 4; id++ {
		c.Note(lruSample(id, 4))
	}
	c.Touch(0) // order now (MRU→LRU): 0, 3, 2, 1
	c.Note(lruSample(10, 4))
	if c.Has(1) {
		t.Fatalf("expected 1 evicted first")
	}
	c.Note(lruSample(11, 4))
	if c.Has(2) {
		t.Fatalf("expected 2 evicted second")
	}
	for _, id := range []int64{0, 3, 10, 11} {
		if !c.Has(id) {
			t.Fatalf("expected %d retained", id)
		}
	}
}
