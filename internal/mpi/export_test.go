package mpi

import "plshuffle/internal/transport"

// Library code that only tests and benchmarks call, kept beside them: the
// naive all-reduce the ring is compared against, the default-partition
// IAllreduce (the trainer always passes its own chunk bounds), the
// wait-for-all helpers, the reduction steps the collectives apply, and the
// mailbox and tag views the agreement tests check.
// Exported here so the external mpi_test package sees them too.

// RaceEnabled lets the external test package skip allocation gates under
// the race detector (see raceEnabled).
const RaceEnabled = raceEnabled

// ReduceInto and ScaleAvg are the element-wise steps every all-reduce
// applies to a chunk: fold a peer's values in, and finish an OpAvg.
func ReduceInto[T Number](dst, src []T, op Op) { reduceInto(dst, src, op) }
func ScaleAvg[T Number](s []T, size int)       { scaleAvg(s, size) }

// AllreduceNaive gathers every buffer to rank 0, reduces there, and
// broadcasts the result. It exists as the ablation baseline for the ring
// algorithm (DESIGN.md: BenchmarkAblationAllreduce).
func AllreduceNaive[T Number](c *Comm, buf []T, op Op) {
	seq := c.nextSeq()
	size, rank := c.GroupSize(), c.gidx
	if size == 1 {
		return
	}
	if rank == 0 {
		reqs := make([]*Request, size-1)
		for r := 1; r < size; r++ {
			reqs[r-1] = c.irecvInternal(c.worldRank(r), collTag(seq, 0))
		}
		for _, req := range reqs {
			payload, _ := c.collWait(req)
			reduceInto(buf, payload.([]T), op)
			release(payload)
		}
		if op == OpAvg {
			scaleAvg(buf, size)
		}
		for r := 1; r < size; r++ {
			c.isendInternal(c.worldRank(r), collTag(seq, 1), buf)
		}
	} else {
		c.isendInternal(c.worldRank(0), collTag(seq, 0), buf)
		payload, _ := c.collWait(c.irecvInternal(c.worldRank(0), collTag(seq, 1)))
		copy(buf, payload.([]T))
		release(payload)
	}
}

// IAllreduce starts a non-blocking element-wise reduction of buf across
// all ranks, using the same ring algorithm (and therefore the same
// per-element reduction order — bitwise-identical results) as the blocking
// Allreduce. The caller must not touch buf until Wait returns.
//
// Every rank must launch its collectives (blocking and non-blocking alike)
// in the same program order; the internal tag space is derived from that
// shared order, so any number of IAllreduce operations may be in flight
// concurrently, and may overlap blocking collectives, without cross-talk.
func IAllreduce[T Number](c *Comm, buf []T, op Op) *CollRequest {
	size := c.GroupSize()
	if size == 1 {
		return completedCollRequest()
	}
	bounds := make([]int, size+1)
	fillDefaultBounds(bounds, len(buf), size)
	return iallreduce(c, buf, buf, op, bounds, nil)
}

// WaitAllColl waits for every request in reqs (nil entries allowed).
func WaitAllColl(reqs []*CollRequest) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}

// WaitAll waits for every request in reqs.
func WaitAll(reqs []*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}

// UnexpectedLen is the length of c's queue of delivered, unmatched messages.
func UnexpectedLen(c *Comm) int {
	c.mbox.mu.Lock()
	defer c.mbox.mu.Unlock()
	return len(c.mbox.unexpected)
}

// CollTag is the internal tag of phase (an Agree round, a ring step) of the
// collective with sequence number seq — what a fault script crashes on.
func CollTag(seq, phase int) int { return collTag(seq, phase) }

// NotePeerFailure feeds a failure into the registry by hand, with the same
// wake-all-waiters semantics as a transport-detected death.
func (c *Comm) NotePeerFailure(pe transport.PeerError) { c.failures.note(pe) }
