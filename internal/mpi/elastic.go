package mpi

// Elastic growth (DESIGN.md §15): the dual of Shrink. Where Shrink re-forms
// the collective group over the survivors of a failure, Grow re-forms it
// over an ENLARGED world after a new rank rendezvoused mid-run. The same
// contract applies: every member (including the joiner) calls Grow with the
// same arguments at a quiescent point — no collective in flight, no posted
// receives the resize could orphan — and the group's next collective rings
// over the new membership. Joiner slots are assigned monotonically above
// the original world size and never reuse a dead rank's slot, so the
// permanent failure registry can never mistake a joiner for a corpse.

import (
	"fmt"
	"sort"

	"plshuffle/internal/transport"
)

// noteJoinRequest is the transport.JoinNotifier callback registered by
// Connect. It runs on a transport goroutine and must not block.
func (c *Comm) noteJoinRequest(jr transport.JoinRequest) {
	c.joinMu.Lock()
	c.joins = append(c.joins, jr)
	c.joinMu.Unlock()
}

// NoteJoinRequest feeds a join request into the queue by hand — the
// in-process analogue of a rendezvous hello, used by elastic tests and by
// launchers that learn about joiners out of band.
func (c *Comm) NoteJoinRequest(jr transport.JoinRequest) { c.noteJoinRequest(jr) }

// PendingJoins drains and returns the queued join requests, ordered by
// arrival. Rank 0 of an elastic world polls it at each epoch boundary;
// other ranks always see an empty queue and learn about joiners from rank
// 0's broadcast.
func (c *Comm) PendingJoins() []transport.JoinRequest {
	c.joinMu.Lock()
	out := c.joins
	c.joins = nil
	c.joinMu.Unlock()
	return out
}

// AdmitPeer records a new peer's address with the underlying transport so
// point-to-point traffic toward it can flow. Backends without elastic
// support (inproc, whose worlds are wired at creation) make it a no-op —
// their tests deliver joiner traffic through pre-wired slots.
func (c *Comm) AdmitPeer(rank int, addr string) error {
	if pa, ok := transport.AsPeerAdmitter(c.conn); ok {
		return pa.AdmitPeer(rank, addr)
	}
	return nil
}

// Grow re-forms the communicator over a resized world: newSize widens (or,
// on a freshly connected joiner adopting the world view, narrows) the world
// rank space, and group lists the live world ranks exactly as Shrink does.
// group must be sorted, duplicate-free, within [0, newSize), and contain
// this rank. Like Shrink it must be called by every member with the SAME
// arguments at a quiescent point. Unlike Shrink it may introduce ranks this
// communicator has never exchanged a frame with — the caller is responsible
// for having admitted them at the transport level first (AdmitPeer).
func (c *Comm) Grow(newSize int, group []int) error { return c.regroup("Grow", newSize, group) }

// regroup validates and installs a world size and collective group for
// Shrink and Grow.
func (c *Comm) regroup(op string, newSize int, group []int) error {
	if newSize <= 0 {
		return fmt.Errorf("mpi: %s: world size %d must be positive", op, newSize)
	}
	if len(group) == 0 {
		return fmt.Errorf("mpi: %s: empty group", op)
	}
	g := append([]int(nil), group...)
	for i, r := range g {
		if r < 0 || r >= newSize {
			return fmt.Errorf("mpi: %s: rank %d out of range [0,%d)", op, r, newSize)
		}
		if i > 0 && g[i-1] >= r {
			return fmt.Errorf("mpi: %s: group not strictly sorted at index %d", op, i)
		}
	}
	idx := sort.SearchInts(g, c.rank)
	if idx == len(g) || g[idx] != c.rank {
		return fmt.Errorf("mpi: %s: group does not contain this rank %d", op, c.rank)
	}
	c.size = newSize
	if len(g) == newSize {
		c.group, c.gidx = nil, c.rank
		return nil
	}
	c.group, c.gidx = g, idx
	return nil
}
