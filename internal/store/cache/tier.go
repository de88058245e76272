// Package cache is the node-local storage tier between the trainer and the
// shard store's "PFS": a byte-budgeted cache of whole shards in one local
// file, mapped once and cut into slots. The access order is a pure function
// of the seed, so nothing is guessed: the tier is handed the plan — the
// sequence of shard windows the trainer will pin — and evicts the shard
// whose next use is farthest (Belady/OPT), while one background goroutine
// walks the plan ahead of the reader and lands shards before they are
// needed — the Figure 4 overlap discipline applied to the storage
// hierarchy instead of the sample exchange.
//
// Admission is shard-granular: a fetch reads the whole shard from the PFS
// tier (internal/store/shard.Dataset.FetchShardInto) straight into a free
// slot, where it is verified and opened in one parse; eviction hands the
// slot back. The byte budget
// plays the (1+Q)·N/M role of Section III-A: the sum of cached shard file
// bytes never exceeds it, pinned (in-use) shards are never evicted or
// overwritten, and an admission that cannot fit even after evicting every
// unpinned shard fails loudly instead of silently overflowing.
//
// The tier affects timing only, never values: which shards are cached,
// prefetched, or re-fetched cannot change the bytes a read returns, so
// trained weights stay bitwise identical across cache configurations.
package cache

import (
	"fmt"
	"sync"
	"time"

	"plshuffle/internal/store/shard"
)

// nowNano is time.Now().UnixNano behind a name the accounting code shares.
func nowNano() int64 { return time.Now().UnixNano() }

// Stats is a snapshot of the tier's counters. Hits are acquisitions served
// from cache (including shards an earlier prefetch already admitted);
// misses paid a synchronous PFS fetch. PFSReadBytes/PFSReadNs cover every
// PFS fetch, prefetched or not. WaitNs is the time Acquire spent blocked,
// on its own fetch or on a prefetch still in flight — a hit can still
// stall. UsedBytes/PeakBytes are real shard-file bytes.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	PrefetchBytes int64
	PFSReadBytes  int64
	PFSReadNs     int64
	WaitNs        int64
	UsedBytes     int64
	PeakBytes     int64
}

// entry is one cached shard. While its fetch is in flight sh and err are
// both nil; a failed fetch sets err after the entry has left the map.
type entry struct {
	id    int
	sh    *shard.Shard
	err   error
	slot  int
	bytes int64
	pins  int
	seen  uint64 // victim's scan stamp
	busy  bool   // victim: read between the cursor and the admitted position
}

// step is one planned read: the shard, and the window it is pinned in.
type step struct{ id, win int }

// Tier is one rank's node-local cache. Acquire/Release are safe for
// concurrent use (the prefetcher runs on its own goroutine).
type Tier struct {
	pfs    *shard.Dataset
	budget int64 // bytes; 0 = unlimited

	mu      sync.Mutex
	cond    *sync.Cond // every change a waiter could be blocked on
	slots   slots
	entries map[int]*entry
	st      Stats
	stamp   uint64
	closed  bool
	// The plan: seq[cursor:] are the reads still to come, cursor moves when
	// Acquire takes the shard it names, and pf is how far the prefetcher has
	// walked. The consumed part of the cursor's window stays until the plan
	// is next extended, so victim can tell what is pinned beside a position.
	seq        []step
	cursor, pf int
	wins       int

	wg sync.WaitGroup
}

// New creates a cache tier over the PFS dataset with the given byte budget
// (0 = unlimited). dir is where the cache file goes (empty: the system's
// temporary directory); Close removes the file. A non-zero budget must at
// least hold the dataset's largest shard, or no window could ever be
// pinned.
func New(pfs *shard.Dataset, budgetBytes int64, dir string) (*Tier, error) {
	if budgetBytes < 0 {
		return nil, fmt.Errorf("cache: negative budget %d", budgetBytes)
	}
	widest := pfs.Manifest().MaxShardBytes()
	if budgetBytes > 0 && budgetBytes < widest {
		return nil, fmt.Errorf("cache: budget %d bytes cannot hold the largest shard (%d bytes)", budgetBytes, widest)
	}
	t := &Tier{pfs: pfs, budget: budgetBytes, entries: make(map[int]*entry)}
	t.cond = sync.NewCond(&t.mu)
	// Slots are as wide as the largest shard, so budget/widest of them can
	// never hold more than the budget in shard-file bytes: a free slot is room.
	if err := t.slots.open(dir, widest, int(budgetBytes/widest)); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	t.wg.Add(1)
	go t.prefetchLoop()
	return t, nil
}

// Budget returns the configured byte budget (0 = unlimited).
func (t *Tier) Budget() int64 { return t.budget }

// Stats returns a consistent snapshot of the tier's counters.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// extend appends one window of reads to the plan, dropping what has been
// consumed before the cursor's window. Caller holds t.mu.
func (t *Tier) extend(ids []int) {
	lo := t.cursor
	for lo > 0 && lo < len(t.seq) && t.seq[lo-1].win == t.seq[lo].win {
		lo--
	}
	t.seq = append(t.seq[:0], t.seq[lo:]...)
	t.cursor, t.pf = t.cursor-lo, max(t.pf-lo, 0)
	t.wins++
	for _, id := range ids {
		t.seq = append(t.seq, step{id, t.wins})
	}
	t.cond.Broadcast()
}

// Prefetch tells the tier what comes next: after everything already
// planned, the trainer will pin these shards together, acquiring them in
// this order. The prefetcher lands them as far ahead as the budget allows
// and eviction ranks every resident shard by its next planned read.
// Prefetch never evicts a pinned shard and never blocks on a fetch.
func (t *Tier) Prefetch(ids []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.extend(ids)
}

// setPlan makes windows the reads that come next. An epoch announced ahead
// with Prefetch is already there; anything else that was planned is stale
// (an abandoned epoch, a re-formed world) and goes.
func (t *Tier) setPlan(windows [][]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.cursor
	for _, win := range windows {
		for _, id := range win {
			if q == len(t.seq) || t.seq[q].id != id {
				t.seq, t.cursor, t.pf = t.seq[:0], 0, 0
				for _, win := range windows {
					t.extend(win)
				}
				return
			}
			q++
		}
	}
}

// skip passes over planned reads the stream will not make (an epoch closed
// before its last window).
func (t *Tier) skip(ids []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.advance(id)
	}
}

// advance moves the cursor past id if that is the next planned read.
func (t *Tier) advance(id int) {
	if t.cursor < len(t.seq) && t.seq[t.cursor].id == id {
		t.cursor++
		t.cond.Broadcast()
	}
}

// victim is Belady's choice for admitting plan position p: of the shards
// that will not be pinned when p is read, the one whose next read after p
// is farthest; shards the plan never reads again tie for farthest. now
// reports whether it can go this instant. A demand fetch (p is behind the
// cursor: the reader is there) chooses among what is evictable now; the
// prefetcher chooses as the reader will at p — among everything but the
// shards of p's own window — and waits for a victim that is still pinned,
// in flight, or read before p, so prefetching moves fetches earlier
// without adding any.
func (t *Tier) victim(p int) (v *entry, now bool) {
	demand := p < t.cursor
	t.stamp++
	n := 0
	for _, e := range t.entries {
		e.busy = false
		if demand && (e.pins > 0 || e.sh == nil) {
			e.seen = t.stamp
		} else {
			n++
		}
	}
	for q := p - 1; !demand && q >= 0 && t.seq[q].win == t.seq[p].win; q-- {
		if e := t.entries[t.seq[q].id]; e != nil && e.seen != t.stamp {
			e.seen = t.stamp
			n--
		}
	}
	for q := t.cursor; q < len(t.seq) && n > 0; q++ {
		e := t.entries[t.seq[q].id]
		if e == nil || e.seen == t.stamp {
			continue
		}
		if q <= p {
			e.busy = true
			continue
		}
		e.seen, v = t.stamp, e
		n--
	}
	free := func(e *entry) bool { return e.pins == 0 && e.sh != nil && !e.busy }
	if n > 0 { // some are never read again: any of them, preferably one that can go now
		for _, e := range t.entries {
			if e.seen != t.stamp {
				if v = e; free(e) {
					break
				}
			}
		}
	}
	return v, v != nil && free(v)
}

// reserve claims a slot and the byte reservation for shard id, to be read
// at plan position p (cursor-1 when the reader asks: the read just taken),
// evicting Belady's victim if no slot is free. wait
// means the room will come (a release, a landing); an error is final: even
// a fully-drained cache cannot fit the shard next to the pinned set — the
// loud version of the Section III-A feasibility constraint. Caller holds
// t.mu.
func (t *Tier) reserve(id, p int) (e *entry, wait bool, err error) {
	man := t.pfs.Manifest()
	if id < 0 || id >= man.NumShards {
		return nil, false, fmt.Errorf("cache: shard %d out of [0,%d)", id, man.NumShards)
	}
	slot, err := t.slots.get()
	if err != nil {
		return nil, false, fmt.Errorf("cache: shard %d: %w", id, err)
	}
	if slot < 0 {
		v, now := t.victim(p)
		if v == nil {
			for _, e := range t.entries {
				if e.pins == 0 { // in flight: it settles, then it can go
					return nil, true, nil
				}
			}
			return nil, false, fmt.Errorf("cache: budget %d bytes exhausted by pinned shards (used %d, shard %d needs %d more)",
				t.budget, t.st.UsedBytes, id, man.ShardFileBytes[id])
		}
		if !now {
			return nil, true, nil
		}
		delete(t.entries, v.id)
		t.st.UsedBytes -= v.bytes
		t.st.Evictions++
		slot = v.slot
	}
	e = &entry{id: id, slot: slot, bytes: man.ShardFileBytes[id]}
	t.entries[id] = e
	t.st.UsedBytes += e.bytes
	t.st.PeakBytes = max(t.st.PeakBytes, t.st.UsedBytes)
	return e, false, nil
}

// land reads e's shard from the PFS tier into its slot and opens it there.
// Called with t.mu held; the fetch itself runs unlocked. A failed landing
// gives the slot and the reservation back and takes the entry out of the
// map before anyone can find it again; whoever already waits on it sees
// e.err.
func (t *Tier) land(e *entry) {
	buf := t.slots.buf(e.slot)
	t.mu.Unlock()
	start := nowNano()
	sh, err := t.pfs.FetchShardInto(e.id, buf)
	took := nowNano() - start
	t.mu.Lock()
	t.st.PFSReadNs += took
	if err != nil {
		e.err = fmt.Errorf("cache: landing shard %d: %w", e.id, err)
		delete(t.entries, e.id)
		t.st.UsedBytes -= e.bytes
		t.slots.put(e.slot)
	} else {
		e.sh = sh
		t.st.PFSReadBytes += e.bytes
	}
	t.cond.Broadcast()
}

// Acquire returns shard id opened and pinned: it will not be evicted until
// the matching Release. A cached or in-flight-prefetched shard is a hit; a
// cold shard pays a synchronous PFS fetch (a miss).
func (t *Tier) Acquire(id int) (*shard.Shard, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(id)
	e := t.entries[id]
	if e != nil && e.sh != nil { // resident: the one path that cannot block
		e.pins++
		t.st.Hits++
		return e.sh, nil
	}
	defer func(start int64) { t.st.WaitNs += nowNano() - start }(nowNano())
	for ; e == nil; e = t.entries[id] {
		own, wait, err := t.reserve(id, t.cursor-1)
		if err != nil {
			return nil, err
		}
		if wait {
			t.cond.Wait()
			continue
		}
		own.pins = 1
		t.st.Misses++
		t.land(own)
		return own.sh, own.err
	}
	e.pins++
	for e.sh == nil && e.err == nil {
		t.cond.Wait()
	}
	if e.err == nil {
		t.st.Hits++
	}
	return e.sh, e.err
}

// Release unpins a shard acquired with Acquire. The shard stays cached
// (and becomes evictable) until the plan has a better use for its slot.
func (t *Tier) Release(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok || e.pins <= 0 {
		panic(fmt.Sprintf("cache: Release(%d) without matching Acquire", id))
	}
	if e.pins--; e.pins == 0 {
		t.cond.Broadcast()
	}
}

// prefetchLoop walks the plan ahead of the reader — one PFS stream per
// rank, matching the per-client bandwidth model — as deep as the budget
// allows: when victim says the slot it needs is not free yet, it sleeps
// until a release, a landing or a plan change. A shard it cannot land (or
// name) is left for the reader's Acquire to fetch and report.
func (t *Tier) prefetchLoop() {
	defer t.wg.Done()
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.closed {
		t.pf = max(t.pf, t.cursor)
		if t.pf == len(t.seq) {
			t.cond.Wait()
		} else if id := t.seq[t.pf].id; t.entries[id] != nil {
			t.pf++
		} else if e, wait, err := t.reserve(id, t.pf); wait {
			t.cond.Wait()
		} else if t.pf++; err == nil {
			if t.land(e); e.err == nil {
				t.st.PrefetchBytes += e.bytes
			}
		}
	}
}

// Close stops the prefetcher, unmaps the slots and removes the cache file.
func (t *Tier) Close() error {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	t.wg.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries, t.st.UsedBytes = map[int]*entry{}, 0
	return t.slots.close()
}
