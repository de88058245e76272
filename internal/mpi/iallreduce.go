package mpi

import (
	"fmt"
	"time"
)

// CollRequest represents an in-flight non-blocking collective operation
// (IAllreduceChunks, IAllreduceStep). The operation progresses on a
// dedicated goroutine; Wait blocks the caller until it completes. Unlike the
// point-to-point Request, a CollRequest also carries the operation's exact
// wire-byte accounting and its in-flight wall-clock, which is what lets
// the trainer measure how much of the gradient exchange was hidden behind
// backward compute.
type CollRequest struct {
	done    chan struct{}
	abortCh <-chan struct{}

	// Written by the collective goroutine strictly before done is closed;
	// read by the owner only after Wait/Test observes done. The channel
	// close provides the happens-before edge.
	panicVal   any
	sent, recv int64
	elapsed    time.Duration

	started time.Time
}

// completedCollRequest returns an already-complete request (size-1 worlds).
func completedCollRequest() *CollRequest {
	r := &CollRequest{done: make(chan struct{})}
	close(r.done)
	return r
}

// Wait blocks until the collective completes. If the world is aborted
// while waiting, or the collective itself unwound (abort, transport
// failure), Wait panics with the runtime's control-flow signal exactly as
// a blocking collective would — Run/Execute recover it into a per-rank
// error, so error handling is identical across the sync and async paths.
func (r *CollRequest) Wait() {
	if r.abortCh != nil {
		select {
		case <-r.done:
		case <-r.abortCh:
			panic(abortSignal{})
		}
	} else {
		<-r.done
	}
	if r.panicVal != nil {
		panic(r.panicVal)
	}
}

// Test reports whether the collective has completed without blocking. Once
// it returns true, a Wait call is non-blocking (and still required if the
// caller wants failure unwinding).
func (r *CollRequest) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// WireBytes returns the exact number of wire bytes this rank sent and
// received for the collective (frame headers included). Both are zero on
// non-wire backends. Valid only after Wait.
func (r *CollRequest) WireBytes() (sent, recv int64) { return r.sent, r.recv }

// Elapsed returns the operation's total in-flight wall-clock time, from
// launch to ring completion, an owner step included (IAllreduceStep).
// Valid only after Wait. Comparing the caller's blocked-in-Wait time
// against Elapsed measures the hidden fraction of the communication.
func (r *CollRequest) Elapsed() time.Duration { return r.elapsed }

// IAllreduceChunks starts a non-blocking element-wise reduction of buf
// across the collective group over a caller-supplied chunk partition, using
// the same ring algorithm as the blocking Allreduce. The caller must not
// touch buf until Wait returns. Every rank must launch its collectives
// (blocking and non-blocking alike) in the same program order; the internal
// tag space is derived from that shared order, so any number of them may be
// in flight concurrently, and may overlap blocking collectives, without
// cross-talk.
//
// bounds must have length Size()+1, be non-decreasing, and span
// [0, len(buf)] (bounds[0] = 0, bounds[Size()] = len(buf)); it must be
// identical on every rank and must not be mutated while the operation is
// in flight (precompute it once and reuse it across iterations — the
// pooled-buffer discipline of the hot paths).
//
// The partition controls the per-element reduction order (see
// ringAllreduce), which is what the bucketed gradient sync exploits: a
// bucket covering flat range [lo, hi) of a larger logical buffer passes
// the global flat partition clamped to its range, so every element is
// reduced in exactly the order the flat single-Allreduce path would use —
// the overlapped and serial paths produce bitwise-identical results.
func IAllreduceChunks[T Number](c *Comm, buf []T, op Op, bounds []int) *CollRequest {
	checkBounds(c, "IAllreduceChunks", len(buf), bounds)
	if c.GroupSize() == 1 {
		return completedCollRequest()
	}
	return iallreduce(c, buf, buf, op, bounds, nil)
}

// IAllreduceStep is IAllreduceChunks with an owner step (ZeRO stage 1):
// once the reduce-scatter has left this rank the only holder of chunk
// (GroupRank()+1) mod GroupSize() fully reduced, the ring's goroutine calls
// step(lo, hi) with that chunk's range of buf — never with an empty one —
// and step writes its result into out[lo:hi]. The allgather then carries
// out's chunks, so after Wait every rank's out holds every owner's result,
// while buf holds reduced values only in the rank's own chunk. out has
// buf's length and is the caller's no more than buf until Wait returns. A
// group of one steps the whole range before returning.
//
// Since step runs inside the collective, the request's Elapsed includes it.
func IAllreduceStep[T Number](c *Comm, buf, out []T, op Op, bounds []int, step func(lo, hi int)) *CollRequest {
	checkBounds(c, "IAllreduceStep", len(buf), bounds)
	if len(out) != len(buf) {
		panic(fmt.Sprintf("mpi: IAllreduceStep: len(out)=%d, want len(buf)=%d", len(out), len(buf)))
	}
	if c.GroupSize() == 1 {
		if len(buf) > 0 {
			step(0, len(buf))
		}
		return completedCollRequest()
	}
	return iallreduce(c, buf, out, op, bounds, step)
}

// checkBounds panics unless bounds is a chunk partition of an n-element
// buffer over the collective group (see IAllreduceChunks).
func checkBounds(c *Comm, name string, n int, bounds []int) {
	size := c.GroupSize()
	if len(bounds) != size+1 {
		panic(fmt.Sprintf("mpi: %s: len(bounds)=%d, want group size+1=%d", name, len(bounds), size+1))
	}
	if bounds[0] != 0 || bounds[size] != n {
		panic(fmt.Sprintf("mpi: %s: bounds span [%d,%d], want [0,%d]", name, bounds[0], bounds[size], n))
	}
	for i := 0; i < size; i++ {
		if bounds[i] > bounds[i+1] {
			panic(fmt.Sprintf("mpi: %s: bounds[%d]=%d > bounds[%d]=%d", name, i, bounds[i], i+1, bounds[i+1]))
		}
	}
}

// iallreduce reserves the collective's tag space on the owning goroutine
// (the sequence counter is single-goroutine by contract) and runs the ring
// — with its owner step, if any — on a dedicated goroutine. Runtime unwinds
// inside the ring — abort signals, transport failures, a panicking step —
// are captured and re-raised in Wait on the owner, so a background failure
// can never crash the process from an unrecovered goroutine.
func iallreduce[T Number](c *Comm, buf, out []T, op Op, bounds []int, step func(lo, hi int)) *CollRequest {
	req := &CollRequest{
		done:    make(chan struct{}),
		abortCh: c.abortCh,
		started: time.Now(),
	}
	seq := c.nextSeq()
	c.inflightColl.Add(1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				req.panicVal = p
			}
			req.elapsed = time.Since(req.started)
			c.inflightColl.Add(-1)
			close(req.done)
		}()
		req.sent, req.recv = ringAllreduce(c, buf, out, op, seq, bounds, step)
	}()
	return req
}
