package store

import (
	"errors"
	"testing"
	"testing/quick"

	"plshuffle/internal/data"
)

func sample(id int, bytes int64) data.Sample {
	return data.Sample{ID: id, Label: 0, Features: []float32{1}, Bytes: bytes}
}

func TestPutGetDelete(t *testing.T) {
	l := NewLocal(0)
	if err := l.Put(sample(1, 10)); err != nil {
		t.Fatal(err)
	}
	s, err := l.Get(1)
	if err != nil || s.ID != 1 {
		t.Fatalf("Get: %v %v", s, err)
	}
	if !l.Has(1) || l.Has(2) {
		t.Fatal("Has wrong")
	}
	if l.Len() != 1 || l.Used() != 10 {
		t.Fatalf("Len=%d Used=%d", l.Len(), l.Used())
	}
	if err := l.Delete(1); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 || l.Used() != 0 {
		t.Fatal("delete did not release")
	}
	if _, err := l.Get(1); err == nil {
		t.Fatal("Get after delete succeeded")
	}
	if err := l.Delete(1); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestDuplicatePutRejected(t *testing.T) {
	l := NewLocal(0)
	if err := l.Put(sample(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(sample(1, 10)); err == nil {
		t.Fatal("duplicate Put succeeded")
	}
	if l.Used() != 10 {
		t.Fatalf("duplicate Put corrupted accounting: %d", l.Used())
	}
}

func TestCapacityEnforced(t *testing.T) {
	l := NewLocal(25)
	if err := l.Put(sample(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(sample(2, 10)); err != nil {
		t.Fatal(err)
	}
	err := l.Put(sample(3, 10))
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("overflow error = %v, want ErrCapacity", err)
	}
	if l.Len() != 2 || l.Used() != 20 {
		t.Fatal("failed Put modified state")
	}
	// After freeing space the Put succeeds.
	if err := l.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(sample(3, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	l := NewLocal(0)
	for i := 0; i < 5; i++ {
		if err := l.Put(sample(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := l.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if l.Peak() != 50 {
		t.Fatalf("Peak = %d, want 50", l.Peak())
	}
	if l.Used() != 10 {
		t.Fatalf("Used = %d, want 10", l.Used())
	}
}

func TestIDsSortedAndSamplesMatch(t *testing.T) {
	l := NewLocal(0)
	for _, id := range []int{5, 1, 9, 3} {
		if err := l.Put(sample(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ids := l.IDs()
	want := []int{1, 3, 5, 9}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v", ids)
		}
	}
	ss := l.Samples()
	for i := range ss {
		if ss[i].ID != want[i] {
			t.Fatalf("Samples order wrong: %v", ss[i].ID)
		}
	}
}

func TestAccountingInvariantQuick(t *testing.T) {
	// Property: Used always equals the sum of stored sample sizes, under
	// arbitrary interleavings of Put and Delete.
	check := func(ops []uint16) bool {
		l := NewLocal(0)
		ref := map[int]int64{}
		for _, op := range ops {
			id := int(op % 64)
			if op%2 == 0 {
				b := int64(op%100) + 1
				if err := l.Put(sample(id, b)); err == nil {
					ref[id] = b
				}
			} else {
				if err := l.Delete(id); err == nil {
					delete(ref, id)
				}
			}
		}
		var want int64
		for _, b := range ref {
			want += b
		}
		return l.Used() == want && l.Len() == len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewLocalPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLocal(-1) did not panic")
		}
	}()
	NewLocal(-1)
}
