package mpi

// Failure semantics (DESIGN.md §10): the transport's asynchronous peer
// detectors (heartbeats, connection resets, exhausted redial budgets) feed
// a per-Comm failure registry; every blocking wait in the runtime watches
// it, so a dead peer surfaces as a typed error instead of an eternal block:
//
//   - A wait inside the collective group — every collective receive, and a
//     user receive waited in Comm.Wait — unwinds the rank with a
//     transportFailure carrying the *transport.PeerError when any group
//     member is reported dead, whoever it waits for (recovered by
//     Run/Execute, or by a Guard at a transaction boundary). A send to a
//     dead rank unwinds the same way.
//   - Agree takes deaths as values: it is the agreement that decides what
//     a death must not split.
//   - WaitPeerAware returns a death as a value; it is for a rank outside
//     the group (a joiner awaiting admission).
//   - Shrink re-forms the communicator's collective group over the
//     survivors (the spirit of MPI-ULFM's MPI_Comm_shrink): subsequent
//     collectives ring over the live ranks only, while point-to-point
//     operations keep addressing world ranks.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"plshuffle/internal/transport"
)

// ErrCommClosed is the cause carried by the unwind of an operation that was
// blocked in a Wait when the communicator was closed.
var ErrCommClosed = errors.New("mpi: communicator closed")

// failureRegistry tracks which peers the transport has reported dead, first
// reported first, and the latest generation each peer's collective frames
// have shown. The replace-channel idiom gives waiters an edge-triggered
// broadcast: each change closes the current channel and installs a fresh
// one, so a waiter takes the channel, checks its predicate, and blocks on
// the channel knowing any later change will wake it.
type failureRegistry struct {
	mu    sync.Mutex
	dead  map[int]*transport.PeerError
	order []int       // dead ranks, first reported first
	gens  map[int]int // peer → latest generation of its collective frames
	ch    chan struct{}
}

func (fr *failureRegistry) init() {
	fr.dead = make(map[int]*transport.PeerError)
	fr.gens = make(map[int]int)
	fr.ch = make(chan struct{})
}

// note records a peer failure (idempotent per rank) and wakes all waiters.
func (fr *failureRegistry) note(pe transport.PeerError) {
	fr.mu.Lock()
	if _, dup := fr.dead[pe.Rank]; dup {
		fr.mu.Unlock()
		return
	}
	cp := pe
	fr.dead[pe.Rank] = &cp
	fr.order = append(fr.order, pe.Rank)
	fr.wakeLocked()
}

// noteGeneration records that rank sent a collective frame of generation g.
func (fr *failureRegistry) noteGeneration(rank, g int) {
	fr.mu.Lock()
	if fr.gens[rank] >= g {
		fr.mu.Unlock()
		return
	}
	fr.gens[rank] = g
	fr.wakeLocked()
}

func (fr *failureRegistry) generation(rank int) int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.gens[rank]
}

// wakeLocked wakes every waiter; it releases fr.mu.
func (fr *failureRegistry) wakeLocked() {
	ch := fr.ch
	fr.ch = make(chan struct{})
	fr.mu.Unlock()
	close(ch)
}

// changed returns the channel the next change closes. Check predicates
// AFTER taking it.
func (fr *failureRegistry) changed() <-chan struct{} {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.ch
}

func (fr *failureRegistry) get(rank int) *transport.PeerError {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.dead[rank]
}

func (fr *failureRegistry) ranks() []int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]int(nil), fr.order...)
}

// notePeerFailure is the transport.FailureNotifier callback registered by
// NewWorld/Connect. It runs on a transport goroutine and must not block.
func (c *Comm) notePeerFailure(pe transport.PeerError) {
	c.failures.note(pe)
}

// FailedPeers returns the ranks the transport has reported dead, first
// reported first.
func (c *Comm) FailedPeers() []int { return c.failures.ranks() }

// PeerFailure returns the recorded failure for rank, or nil if the rank has
// not been reported dead.
func (c *Comm) PeerFailure(rank int) *transport.PeerError { return c.failures.get(rank) }

// waitWatching is the one blocking wait of the runtime: it returns req's
// payload and status once it completes, or an error when stop — checked at
// the start and after every change in the failure registry — returns one, or
// the communicator closes (ErrCommClosed) first. On error the posted receive
// has been withdrawn, so it cannot steal a future message; a failed withdrawal
// means a delivery already committed (done closes imminently — deliver closes
// it right after unhooking the receive), and the completed message wins over
// the error.
func (c *Comm) waitWatching(req *Request, stop func() error) (any, Status, error) {
	for {
		ch := c.failures.changed()
		err := stop()
		if err == nil {
			select {
			case <-req.done:
				return req.payload, req.status, nil
			case <-c.abortCh:
				panic(abortSignal{})
			case <-c.closedCh:
				err = ErrCommClosed
			case <-ch:
				continue // the registry changed; re-check stop
			}
		}
		if c.mbox.cancel(req) {
			return nil, Status{}, err
		}
		<-req.done
		return req.payload, req.status, nil
	}
}

// collWait is the wait used by every internal collective receive: it blocks
// until the request completes, and unwinds the rank (panic transportFailure
// carrying the *transport.PeerError) if any member of the current
// collective group is reported dead meanwhile. A collective cannot complete
// once a participant is gone; unwinding promptly — on EVERY survivor, since
// detection is all-to-all — is what lets a caller-level guard sacrifice the
// operation and re-form the group, and what guarantees no goroutine is left
// blocked forever. The panic is recovered by Run/Execute (into a per-rank
// error) or by a transaction guard (train's degrade mode).
func (c *Comm) collWait(req *Request) (any, Status) {
	payload, st, err := c.waitWatching(req, c.deathOutside(c.outsideGroup))
	if err != nil {
		panic(transportFailure{err})
	}
	return payload, st
}

// Wait blocks until the user receive req completes, watching the group as a
// collective does (collWait): a group member's death unwinds the rank,
// whoever req waits for, and a death outside the group is ignored. On the
// unwind the receive has been withdrawn. The exchange's blocking drain waits
// here, so a death ends an epoch's exchange the way it ends a collective.
func (c *Comm) Wait(req *Request) (any, Status) { return c.collWait(req) }

// WaitPeerAware blocks until req completes and returns its payload/status,
// or returns a non-nil *transport.PeerError as error when a peer fails that
// the caller does not already know about (known reports ranks whose death
// the caller has already accounted for; nil means none). On error the
// posted receive has been withdrawn (unless it completed concurrently, in
// which case the completed message wins and no error is returned).
//
// It does not unwind: a rank outside the collective group, which no
// collective or Guard covers yet, waits here — the joiner awaiting its
// admission counts the world's deaths until none is left to admit it.
func (c *Comm) WaitPeerAware(req *Request, known func(rank int) bool) (any, Status, error) {
	payload, st, err := c.waitWatching(req, c.deathOutside(known))
	if err == ErrCommClosed {
		err = fmt.Errorf("mpi: rank %d: %w", c.rank, ErrCommClosed)
	}
	return payload, st, err
}

// outsideGroup reports whether rank is not a member of the collective group —
// the deaths a collective can ignore.
func (c *Comm) outsideGroup(rank int) bool { return c.groupIndex(rank) < 0 }

// deathOutside returns the stop condition of a wait that a reported death
// not covered by known interrupts: the first such *transport.PeerError.
func (c *Comm) deathOutside(known func(rank int) bool) func() error {
	return func() error {
		c.failures.mu.Lock()
		defer c.failures.mu.Unlock()
		for _, r := range c.failures.order {
			if known == nil || !known(r) {
				return c.failures.dead[r]
			}
		}
		return nil
	}
}

// CancelRecv withdraws a posted receive (the exchange scheduler's
// outstanding ANY_SOURCE receive when it abandons an epoch). It returns true
// if the receive was withdrawn before matching; false means the request
// completed — the caller should consume it via Wait/Test.
func (c *Comm) CancelRecv(req *Request) bool { return c.mbox.cancel(req) }

// --- group (shrunken communicator) machinery ---

// GroupSize returns the number of ranks in the communicator's collective
// group: Size() for a full world, fewer after Shrink.
func (c *Comm) GroupSize() int {
	if c.group == nil {
		return c.size
	}
	return len(c.group)
}

// GroupRanks returns the sorted world ranks of the collective group (a
// copy). For a full world it is simply 0..Size()-1.
func (c *Comm) GroupRanks() []int {
	if c.group == nil {
		out := make([]int, c.size)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return append([]int(nil), c.group...)
}

// worldRank maps a group index to its world rank.
func (c *Comm) worldRank(i int) int {
	if c.group == nil {
		return i
	}
	return c.group[i]
}

// groupIndex returns the group index of a world rank, or -1 if the rank is
// not a member of the current group.
func (c *Comm) groupIndex(rank int) int {
	if c.group == nil {
		if rank < 0 || rank >= c.size {
			return -1
		}
		return rank
	}
	i := sort.SearchInts(c.group, rank)
	if i < len(c.group) && c.group[i] == rank {
		return i
	}
	return -1
}

// Shrink re-forms the communicator's collective group over live: subsequent
// collectives (Barrier, Allreduce, Bcast, ... and the async IAllreduce)
// ring over exactly these world ranks. live must be sorted, free of
// duplicates, within [0, Size()), and contain this rank. Every surviving
// rank must call Shrink with the SAME list before the group's next
// collective, and no collective may be in flight during the call — the
// usual re-formation contract after a failure (compare MPI-ULFM's
// MPI_Comm_shrink). Shrinking back to the full world is expressed by
// passing all ranks.
func (c *Comm) Shrink(live []int) error { return c.regroup("Shrink", c.size, live) }

// GroupRank returns this rank's index within the collective group (Rank()
// for a full world). Callers that shard work across the group — validation
// shards, per-group denominators — index by GroupRank over GroupSize so a
// shrunken world still covers the whole range.
func (c *Comm) GroupRank() int { return c.gidx }

// Guard runs fn and converts a peer-failure unwind into a returned error
// WITHOUT aborting the world — the transaction boundary for degrade-mode
// callers (train's -on-peer-fail=degrade) that intend to Shrink the group
// and continue. Any other unwind — world abort, closed communicator, a
// genuine panic — propagates unchanged, because those mean the run is over,
// not that one peer died.
func (c *Comm) Guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			tf, ok := p.(transportFailure)
			if !ok {
				panic(p)
			}
			if _, isPeer := transport.AsPeerError(tf.err); !isPeer {
				panic(p)
			}
			err = fmt.Errorf("mpi: rank %d sacrificed a collective: %w", c.rank, tf.err)
		}
	}()
	return fn()
}

// CollSeq returns the communicator's next collective sequence number; its
// high word is the membership generation (Generation). Safe to call from any
// goroutine (telemetry samples it as a progress gauge).
func (c *Comm) CollSeq() int { return int(c.collSeq.Load()) }

// SetCollSeq realigns the collective sequence counter. seq must be at least
// the current value on every surviving rank so that no future collective
// reuses a tag a sacrificed collective's stale frames still occupy. Must only
// be called by the owning goroutine with no collective in flight.
func (c *Comm) SetCollSeq(seq int) {
	if cur := int(c.collSeq.Load()); seq < cur {
		panic(fmt.Sprintf("mpi: SetCollSeq(%d): would rewind past %d and collide with stale tags", seq, cur))
	}
	c.collSeq.Store(int64(seq))
}

// Generation returns the membership generation, the count of re-formations
// (persisted in snapshots): the high word of the collective sequence, so it
// salts every collective's tags — no frame of an earlier generation matches
// a live one — and the rebalance's (shuffle.RebalanceTag).
func (c *Comm) Generation() int { return c.CollSeq() >> 32 }

// EnterGeneration opens generation g, above the current one. Every member of
// a re-formed group enters the same g before its next collective; a joiner
// the one its admission names, a resumed rank its snapshot's.
func (c *Comm) EnterGeneration(g int) error {
	if cur := c.Generation(); g <= cur {
		return fmt.Errorf("mpi: EnterGeneration(%d): generation %d is already open", g, cur)
	}
	c.SetCollSeq(g << 32)
	return nil
}

// InflightCollectives returns the number of non-blocking collectives
// currently in flight (launched, Wait not yet satisfied) — the live overlap
// depth of the bucketed gradient sync. Safe to call from any goroutine.
func (c *Comm) InflightCollectives() int { return int(c.inflightColl.Load()) }

// PeerErrorFrom unwraps err into the typed peer failure it carries, if any
// — the caller-level test for "a specific peer died" versus "the run is
// broken". It sees through the runtime's unwind wrappers (Run/Execute
// error text) because those wrap with %w.
func PeerErrorFrom(err error) (*transport.PeerError, bool) {
	return transport.AsPeerError(err)
}
