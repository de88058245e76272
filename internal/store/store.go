// Package store models the storage areas of Section III-A: each worker owns
// a "predefined storage area" (node-local SSD, memory, or a slice of the
// parallel file system) holding its designated samples, with byte-level
// capacity accounting.
//
// The capacity checks make the paper's storage argument executable: partial
// local shuffling needs at most (1+Q)·N/M per worker because exchanged
// samples are received before the transmitted ones are removed, while
// global shuffling needs the full dataset reachable by every worker.
package store

import (
	"fmt"
	"sort"

	"plshuffle/internal/data"
)

// ErrCapacity is returned (wrapped) when a Put would exceed the store's
// capacity.
var ErrCapacity = fmt.Errorf("store: capacity exceeded")

// Local is one worker's sample storage area. The zero value is unusable;
// create stores with NewLocal. Local is not safe for concurrent use: each
// worker goroutine owns exactly one store, matching the paper's model.
type Local struct {
	capacity int64 // bytes; 0 means unlimited
	used     int64
	peak     int64
	samples  map[int]data.Sample
}

// NewLocal creates a store with the given byte capacity (0 = unlimited).
func NewLocal(capacity int64) *Local {
	if capacity < 0 {
		panic(fmt.Sprintf("store: NewLocal(%d): negative capacity", capacity))
	}
	return &Local{capacity: capacity, samples: make(map[int]data.Sample)}
}

// Put stores a sample, accounting for its simulated byte size. It fails
// with ErrCapacity if the store would overflow, and rejects duplicate IDs
// (a duplicate would double-count bytes and indicates an exchange bug).
func (l *Local) Put(s data.Sample) error {
	if _, ok := l.samples[s.ID]; ok {
		return fmt.Errorf("store: Put: sample %d already stored", s.ID)
	}
	if l.capacity > 0 && l.used+s.Bytes > l.capacity {
		return fmt.Errorf("%w: used %d + sample %d bytes > capacity %d", ErrCapacity, l.used, s.Bytes, l.capacity)
	}
	l.samples[s.ID] = s
	l.used += s.Bytes
	if l.used > l.peak {
		l.peak = l.used
	}
	return nil
}

// Get retrieves a sample by ID.
func (l *Local) Get(id int) (data.Sample, error) {
	s, ok := l.samples[id]
	if !ok {
		return data.Sample{}, fmt.Errorf("store: Get: sample %d not present", id)
	}
	return s, nil
}

// Has reports whether a sample is present.
func (l *Local) Has(id int) bool {
	_, ok := l.samples[id]
	return ok
}

// Delete removes a sample, releasing its bytes. Deleting an absent sample
// is an error: the scheduler must only clean samples it actually sent.
func (l *Local) Delete(id int) error {
	s, ok := l.samples[id]
	if !ok {
		return fmt.Errorf("store: Delete: sample %d not present", id)
	}
	delete(l.samples, id)
	l.used -= s.Bytes
	return nil
}

// Len returns the number of stored samples.
func (l *Local) Len() int { return len(l.samples) }

// Used returns the bytes currently occupied.
func (l *Local) Used() int64 { return l.used }

// Peak returns the high-water mark of occupied bytes — the quantity bounded
// by (1+Q)·N/M in Section III-A.
func (l *Local) Peak() int64 { return l.peak }

// IDs returns the stored sample IDs in ascending order (deterministic
// iteration for the epoch samplers).
func (l *Local) IDs() []int {
	ids := make([]int, 0, len(l.samples))
	for id := range l.samples {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Samples returns the stored samples ordered by ascending ID.
func (l *Local) Samples() []data.Sample {
	ids := l.IDs()
	out := make([]data.Sample, len(ids))
	for i, id := range ids {
		out[i] = l.samples[id]
	}
	return out
}
