// SampleLRU is the deterministic, byte-budgeted sample cache behind the
// exchange deduplication protocol (DESIGN.md §13): each directed rank pair
// keeps two mirrored instances — the sender's mirror (IDs and sizes only)
// and the receiver's segment (IDs and payloads) — and both are pure
// functions of the pairwise FIFO frame stream, so the sender can prove
// "the receiver still holds sample X" without any acknowledgement traffic
// and ship a compact ID reference instead of the payload.
//
// Determinism is the load-bearing property: eviction is strict LRU over an
// intrusive list, the size metric is the encoding-independent fp32 wire
// size of each sample, and there is no clock, randomness, or map-iteration
// dependence anywhere in the update path. Two instances fed the same
// Note/Touch sequence hold exactly the same IDs.
package cache

import (
	"plshuffle/internal/data"
)

// lruEntry is one cached sample in the intrusive LRU list.
type lruEntry struct {
	id         int64
	size       int64
	sample     data.Sample // retained only when the cache keeps payloads
	prev, next *lruEntry
}

// SampleLRU is a bounded most-recently-used sample cache. Not safe for
// concurrent use; each instance belongs to one scheduler goroutine.
type SampleLRU struct {
	budget  int64
	used    int64
	retain  bool // keep payloads (receiver segment) or sizes only (sender mirror)
	entries map[int64]*lruEntry
	head    *lruEntry // most recently used
	tail    *lruEntry // least recently used
}

// NewSampleLRU creates a cache holding at most budget bytes of samples
// (measured by their fp32 wire size, independent of the negotiated batch
// encoding). With retainPayloads the cache keeps the noted samples
// themselves, sharing their feature arrays (receiver role: they are decoded
// samples, whose Features nobody writes while the cache holds them — see
// data.Sample); without, only IDs and sizes (sender mirror role) — the two
// roles evict in lockstep because the metric is identical.
func NewSampleLRU(budget int64, retainPayloads bool) *SampleLRU {
	return &SampleLRU{
		budget:  budget,
		retain:  retainPayloads,
		entries: make(map[int64]*lruEntry),
	}
}

// sampleSize is the deterministic size metric: the sample's fp32 wire
// encoding. Both mirror and segment use it regardless of how the sample
// actually traveled, so a lossy or compressed wire never desynchronizes
// eviction order.
func sampleSize(s data.Sample) int64 { return int64(s.WireSize()) }

func (c *SampleLRU) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *SampleLRU) pushFront(e *lruEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Touch marks id most-recently-used and reports whether it is cached. Both
// sides of a pair Touch the same IDs in the same order when a reference
// frame is built/materialized, keeping recency in lockstep.
func (c *SampleLRU) Touch(id int64) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	c.unlink(e)
	c.pushFront(e)
	return true
}

// Note records s as most-recently-used, evicting least-recently-used
// entries until the budget holds. A sample larger than the whole budget is
// simply not cached (after the eviction sweep) — never a panic, never an
// overflow. Re-noting an existing ID refreshes its recency and payload.
func (c *SampleLRU) Note(s data.Sample) {
	id := int64(s.ID)
	size := sampleSize(s)
	if e, ok := c.entries[id]; ok {
		c.unlink(e)
		c.used -= e.size
		delete(c.entries, id)
	}
	for c.used+size > c.budget && c.tail != nil {
		lru := c.tail
		c.unlink(lru)
		c.used -= lru.size
		delete(c.entries, lru.id)
	}
	if c.used+size > c.budget {
		return // larger than the entire budget; uncacheable
	}
	e := &lruEntry{id: id, size: size}
	if c.retain {
		e.sample = s
	}
	c.entries[id] = e
	c.pushFront(e)
	c.used += size
}

// Get returns the cached sample for id. It does not refresh recency — the
// protocol Touches refs explicitly, in sorted order, on both sides. Only
// meaningful on payload-retaining caches; a mirror always reports false.
func (c *SampleLRU) Get(id int64) (data.Sample, bool) {
	e, ok := c.entries[id]
	if !ok || !c.retain {
		return data.Sample{}, false
	}
	return e.sample, true
}

// Has reports whether id is cached, without touching recency.
func (c *SampleLRU) Has(id int64) bool {
	_, ok := c.entries[id]
	return ok
}

// Len returns the number of cached samples.
func (c *SampleLRU) Len() int { return len(c.entries) }

// Bytes returns the cached bytes under the fp32 size metric.
func (c *SampleLRU) Bytes() int64 { return c.used }

// Budget returns the configured byte budget.
func (c *SampleLRU) Budget() int64 { return c.budget }

// Clear discards every entry — the dedup invalidation hook: after any event
// that could desynchronize a pair (peer failure recovery, scheduler reset),
// both sides drop to the shared empty state and rebuild from live traffic.
func (c *SampleLRU) Clear() {
	c.entries = make(map[int64]*lruEntry)
	c.head, c.tail = nil, nil
	c.used = 0
}
