// Package mpi implements a message-passing runtime with MPI-like semantics:
// ranks, non-blocking point-to-point operations between distinct ranks with
// tag and ANY_SOURCE matching, and the collectives the trainer calls:
// Allreduce for gradient averaging (blocking, or overlapped with
// IAllreduceChunks), Barrier, Bcast, Gather and AllgatherVarLen, and Agree,
// the fault-tolerant agreement that decides the epoch boundary.
//
// The paper's sample-exchange scheme (Algorithm 1) is specified in terms of
// MPI_Isend/MPI_Irecv with MPI_ANY_SOURCE, and the trainer relies on
// Allreduce for gradient averaging. This package reproduces those semantics
// over a pluggable transport (internal/transport): the matching engine,
// collectives, and request machinery live here; frames move over either the
// in-process backend (goroutine ranks, the default used by Run/NewWorld) or
// the TCP backend (one OS process per rank, via Connect):
//
//   - Message matching follows the MPI ordering rule: messages between a
//     pair of ranks with the same tag are non-overtaking (FIFO), and a
//     posted receive matches the earliest acceptable message.
//   - Isend completes eagerly (the payload is copied or serialized into the
//     runtime), so a send request is always immediately complete, as with
//     small-message eager protocols in real MPI implementations. A payload
//     is one of the transport codec's seven types on every backend.
//   - Collectives must be invoked by every rank of the world in the same
//     program order; they are internally sequenced so that back-to-back
//     collectives never interfere. Barrier is a dissemination barrier built
//     from the same point-to-point machinery, so it works identically over
//     every backend.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"plshuffle/internal/transport"
	"plshuffle/internal/transport/inproc"
)

// AnySource matches a receive against messages from any sending rank,
// mirroring MPI_ANY_SOURCE.
const AnySource = -1

// Status describes a completed receive: which rank the message came from and
// with which tag it was sent.
type Status struct {
	Source int
	Tag    int
	// Wire is the exact number of bytes the message's frame occupied on the
	// wire (compressed size if it traveled compressed; see transport.Frame).
	Wire int64
}

// message is a queued in-flight message.
type message struct {
	src     int
	tag     int
	payload any
	wire    int64
}

// pendingRecv is a posted, not-yet-matched receive.
type pendingRecv struct {
	src int // AnySource allowed
	tag int
	req *Request
}

// Request represents an outstanding non-blocking operation. Wait blocks
// until the operation completes and returns the received payload (nil for
// sends) together with its Status.
type Request struct {
	abortCh  <-chan struct{}
	closedCh <-chan struct{}
	done     chan struct{}
	payload  any
	status   Status
}

func completedRequest() *Request {
	r := &Request{done: make(chan struct{})}
	close(r.done)
	return r
}

// abortSignal is the panic value used to unwind a rank when the world is
// aborted (another rank failed). Run recovers it and reports an abort
// error for the rank, mirroring MPI_Abort semantics.
type abortSignal struct{}

// transportFailure is the panic value used to unwind a rank when its
// transport connection fails (e.g. a TCP peer is unreachable after the
// retry budget). Run and Execute recover it into a wrapped error.
type transportFailure struct{ err error }

// Wait blocks until the request completes. For receives it returns the
// payload and the source/tag status; for sends payload is nil. If the
// world is aborted while waiting, Wait panics with an abort signal that
// Run converts into a per-rank error; if the communicator is closed while
// waiting, it panics with a transport failure wrapping ErrCommClosed — so
// a Close from a watchdog goroutine wakes a blocked Recv instead of
// leaking it.
func (r *Request) Wait() (any, Status) {
	select {
	case <-r.done:
		return r.payload, r.status
	default:
	}
	if r.abortCh == nil && r.closedCh == nil {
		<-r.done
		return r.payload, r.status
	}
	// A nil channel blocks its case forever, so the select degrades
	// gracefully when only one watch channel is present.
	select {
	case <-r.done:
		return r.payload, r.status
	case <-r.abortCh:
		panic(abortSignal{})
	case <-r.closedCh:
		// Give a frame already in flight one last chance: the matching
		// engine is memory, not sockets, so a delivered message should win
		// over the teardown race.
		select {
		case <-r.done:
			return r.payload, r.status
		default:
		}
		panic(transportFailure{ErrCommClosed})
	}
}

// Test reports whether the request has completed without blocking. When it
// returns true, payload and status carry the same values Wait would return.
func (r *Request) Test() (bool, any, Status) {
	select {
	case <-r.done:
		return true, r.payload, r.status
	default:
		return false, nil, Status{}
	}
}

// mailbox is the per-rank matching engine: a queue of unexpected messages
// and a queue of posted receives, guarded by a mutex. Matching follows MPI
// semantics (earliest acceptable entry wins; per-(src,tag) FIFO order is
// preserved because senders append in their program order and receivers
// scan in arrival order).
type mailbox struct {
	mu         sync.Mutex
	unexpected []message
	posted     []pendingRecv
}

// deliver hands an incoming message to the engine, completing the earliest
// matching posted receive or queueing the message as unexpected.
func (mb *mailbox) deliver(m message) {
	mb.mu.Lock()
	for i, pr := range mb.posted {
		if (pr.src == AnySource || pr.src == m.src) && pr.tag == m.tag {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			mb.mu.Unlock()
			pr.req.payload = m.payload
			pr.req.status = Status{Source: m.src, Tag: m.tag, Wire: m.wire}
			close(pr.req.done)
			return
		}
	}
	mb.unexpected = append(mb.unexpected, m)
	mb.mu.Unlock()
}

// post registers a receive, completing it immediately if a matching
// unexpected message has already arrived.
func (mb *mailbox) post(src, tag int, req *Request) {
	mb.mu.Lock()
	for i, m := range mb.unexpected {
		if (src == AnySource || src == m.src) && tag == m.tag {
			mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			mb.mu.Unlock()
			req.payload = m.payload
			req.status = Status{Source: m.src, Tag: m.tag, Wire: m.wire}
			close(req.done)
			return
		}
	}
	mb.posted = append(mb.posted, pendingRecv{src: src, tag: tag, req: req})
	mb.mu.Unlock()
}

// cancel withdraws a posted receive from the matching engine. It returns
// false when the receive already matched a message (the caller should then
// consume the request normally) — the cancel-versus-delivery race is
// resolved inside the mailbox lock, so a message is never half-consumed.
func (mb *mailbox) cancel(req *Request) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, pr := range mb.posted {
		if pr.req == req {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			return true
		}
	}
	return false
}

// World is a set of communicating ranks living in one process, backed by
// the inproc transport.
type World struct {
	size      int
	network   *inproc.Network
	comms     []*Comm
	abortCh   chan struct{}
	abortOnce sync.Once
}

// NewWorld creates a world with the given number of ranks. It panics if
// size is not positive, since a world without ranks cannot host a program.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: NewWorld(%d): size must be positive", size))
	}
	w := &World{
		size:    size,
		network: inproc.NewNetwork(size),
		abortCh: make(chan struct{}),
	}
	w.comms = make([]*Comm, size)
	for r := 0; r < size; r++ {
		c := &Comm{rank: r, size: size, abortCh: w.abortCh, onAbort: w.Abort,
			closedCh: make(chan struct{}), gidx: r}
		c.failures.init()
		c.conn = w.network.Attach(r, c.handleFrame)
		if fn, ok := c.conn.(transport.FailureNotifier); ok {
			fn.OnPeerFailure(c.notePeerFailure)
		}
		w.comms[r] = c
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Abort wakes every rank blocked in a Wait or Barrier; they unwind with an
// abort error. It is the in-process analogue of MPI_Abort and is invoked
// automatically by Run when any rank returns an error or panics, so a
// failing rank cannot strand its peers in a collective.
func (w *World) Abort() {
	w.abortOnce.Do(func() { close(w.abortCh) })
}

// Comm returns the communicator endpoint for the given rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: Comm(%d): rank out of range [0,%d)", rank, w.size))
	}
	return w.comms[rank]
}

// Comm is one rank's endpoint into a world of ranks. A Comm must only be
// used by the goroutine that owns the rank (the usual MPI
// single-threaded-rank model); the runtime itself synchronizes cross-rank
// delivery.
type Comm struct {
	conn transport.Conn
	// wire records, once at construction, whether conn moves frames over real
	// sockets (transport.Stats.Wire): the collectives' byte accounting reports
	// only genuine network volume.
	wire    bool
	rank    int
	size    int
	mbox    mailbox
	abortCh chan struct{}
	onAbort func()
	// closedCh is closed by Close (exactly once) and wakes any operation
	// blocked in a Wait — a watchdog's Close cannot strand a blocked Recv.
	closedCh  chan struct{}
	closeOnce sync.Once
	// group, when non-nil, is the sorted list of live world ranks this
	// communicator's collectives run over (it always contains this rank);
	// gidx is this rank's index within it. A nil group means the full world
	// — see Shrink. Point-to-point operations always address world ranks.
	group []int
	gidx  int
	// failures is the peer-failure registry fed by the transport's
	// asynchronous detectors (heartbeats, exhausted retry budgets) — see
	// failure.go for the registry and the peer-aware wait built on it.
	failures failureRegistry
	// collSeq sequences collective operations (including Barrier). Every
	// rank calls collectives in the same program order, so the counters stay
	// in lock-step and the derived internal tags never collide across
	// concurrent collectives. Only the owning goroutine advances it, but it
	// is an atomic so telemetry scrapes (CollSeq from the HTTP goroutine)
	// are race-free.
	collSeq atomic.Int64
	// inflightColl counts launched-but-unfinished non-blocking collectives
	// (IAllreduce goroutines in flight) — a live overlap-depth gauge.
	inflightColl atomic.Int64
	// boundsScratch is the ring-Allreduce chunk-bounds table, reused across
	// calls (a Comm is single-goroutine by contract, so no locking).
	boundsScratch []int
	// joins queues rendezvous join requests announced by the transport
	// (rank 0 of an elastic TCP world) until the trainer drains them at an
	// epoch boundary — see elastic.go.
	joinMu sync.Mutex
	joins  []transport.JoinRequest
}

// Connect builds a communicator over a transport connection opened by dial.
// The dial callback receives the handler that must be invoked for every
// inbound frame (wire backends call it from their reader goroutines) and
// returns the established connection. This is how one OS process becomes
// one rank of a distributed world:
//
//	comm, err := mpi.Connect(func(h transport.Handler) (transport.Conn, error) {
//	        return tcp.New(cfg, h)
//	})
func Connect(dial func(transport.Handler) (transport.Conn, error)) (*Comm, error) {
	c := &Comm{abortCh: make(chan struct{}), closedCh: make(chan struct{})}
	c.failures.init()
	var abortOnce sync.Once
	c.onAbort = func() { abortOnce.Do(func() { close(c.abortCh) }) }
	conn, err := dial(c.handleFrame)
	if err != nil {
		return nil, fmt.Errorf("mpi: Connect: %w", err)
	}
	if conn == nil {
		return nil, fmt.Errorf("mpi: Connect: dial returned a nil connection")
	}
	c.conn = conn
	c.wire = conn.Stats().Wire
	c.rank = conn.Rank()
	c.size = conn.Size()
	c.gidx = c.rank
	if fn, ok := conn.(transport.FailureNotifier); ok {
		fn.OnPeerFailure(c.notePeerFailure)
	}
	if jn, ok := transport.AsJoinNotifier(conn); ok {
		jn.OnJoinRequest(c.noteJoinRequest)
	}
	return c, nil
}

// handleFrame is the transport delivery callback: it feeds inbound frames
// into the rank's matching engine, noting senders already in a later
// generation (they left every collective of this one; see Agree).
func (c *Comm) handleFrame(f transport.Frame) {
	if f.Tag < 0 {
		if g := collTagGeneration(f.Tag); g > c.Generation() {
			c.failures.noteGeneration(f.Src, g)
		}
	}
	c.mbox.deliver(message{src: f.Src, tag: f.Tag, payload: f.Payload, wire: f.Wire})
}

// Transport exposes the underlying connection (for byte accounting and
// shutdown). It is never nil for a Comm built by NewWorld or Connect.
func (c *Comm) Transport() transport.Conn { return c.conn }

// Close shuts down the underlying transport connection, draining queued
// outbound frames first (wire backends). In-process worlds do not require
// it; distributed ranks should Close before exiting. Any operation blocked
// in a Wait when Close is called unwinds with a transport failure wrapping
// ErrCommClosed instead of deadlocking.
func (c *Comm) Close() error {
	c.closeOnce.Do(func() { close(c.closedCh) })
	return c.conn.Close()
}

// Rank returns this endpoint's rank in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.size }

// abort unwinds this rank (and, for in-process worlds, its peers).
func (c *Comm) abort() {
	if c.onAbort != nil {
		c.onAbort()
	}
}

// Abort unwinds this rank: any operation blocked in Wait (or a collective)
// panics with an abort signal that Run/Execute recover into an error. For
// in-process worlds the whole world unwinds (MPI_Abort); for distributed
// ranks only the local process does — watchdogs use it to break a rank out
// of a collective that will never complete because a peer died.
func (c *Comm) Abort() { c.abort() }

// send pushes one frame into the transport and returns its wire size,
// converting a transport failure into a rank unwind (recovered by Run/Execute
// into an error). It is the one unwinding post, under Isend, Send and every
// collective.
func (c *Comm) send(dest, tag int, payload any) int64 {
	wire, err := c.conn.Send(dest, tag, payload)
	if err != nil {
		c.sendFailed(err)
		panic(transportFailure{err})
	}
	return wire
}

// sendFailed classifies a failed Send. A typed peer failure (dead
// destination) is recorded in the failure registry and returned, and never
// aborts the in-process world — so survivors keep running, which is what the
// group re-formation depends on. Any other transport error aborts the world
// and unwinds the rank.
func (c *Comm) sendFailed(err error) *transport.PeerError {
	pe, ok := transport.AsPeerError(err)
	if !ok {
		c.abort()
		panic(transportFailure{err})
	}
	c.failures.note(*pe)
	return pe
}

// Send posts payload to rank dest, another rank, with the given tag and
// returns the frame's exact wire size (transport.Conn.Send's:
// post-compression on a compressing backend). The payload is copied (inproc
// backend; see transport.ClonePayload) or serialized (wire backends), so the
// caller may reuse its buffers immediately. A dead destination unwinds the
// rank like a collective does, with the *transport.PeerError (recovered by
// Run/Execute, or by a Guard); so does a type outside the transport codec's
// set, with the backend's error.
func (c *Comm) Send(dest, tag int, payload any) int64 {
	c.checkDest(dest, "Send")
	c.checkUserTag(tag, "Send")
	return c.send(dest, tag, payload)
}

// Isend is Send returning an already-complete request; Wait on it is allowed
// and returns instantly.
func (c *Comm) Isend(dest, tag int, payload any) *Request {
	c.Send(dest, tag, payload)
	return completedRequest()
}

// Irecv posts a non-blocking receive matching the given source (or
// AnySource) and tag. The returned request completes when a matching message
// arrives.
func (c *Comm) Irecv(src, tag int) *Request {
	if src != AnySource {
		c.checkRank(src, "Irecv")
	}
	c.checkUserTag(tag, "Irecv")
	req := &Request{abortCh: c.abortCh, closedCh: c.closedCh, done: make(chan struct{})}
	c.mbox.post(src, tag, req)
	return req
}

// Recv is a blocking receive (Irecv + Wait).
func (c *Comm) Recv(src, tag int) (any, Status) {
	return c.Irecv(src, tag).Wait()
}

// Barrier blocks until every rank in the communicator's group (the full
// world unless shrunk) has entered the barrier. It is a dissemination
// barrier over the point-to-point layer (log2(M) rounds), so the same
// implementation works across every transport backend. If a group member
// dies while the barrier is blocked, the rank unwinds with a transport
// failure carrying the peer error instead of waiting forever.
func (c *Comm) Barrier() {
	seq := c.nextSeq()
	size, rank := c.GroupSize(), c.gidx
	round := 0
	for dist := 1; dist < size; dist <<= 1 {
		to := c.worldRank((rank + dist) % size)
		from := c.worldRank((rank - dist + size) % size)
		req := c.irecvInternal(from, collTag(seq, round))
		c.isendInternal(to, collTag(seq, round), nil)
		c.collWait(req)
		round++
	}
}

func (c *Comm) checkRank(r int, op string) {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("mpi: %s: rank %d out of range [0,%d)", op, r, c.size))
	}
}

// checkDest refuses a destination out of range or equal to this rank: what a
// rank would send itself it keeps, and no backend carries it.
func (c *Comm) checkDest(dest int, op string) {
	c.checkRank(dest, op)
	if dest == c.rank {
		panic(fmt.Sprintf("mpi: %s: rank %d addressed itself; a rank keeps what it would send itself", op, dest))
	}
}

func (c *Comm) checkUserTag(tag int, op string) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: %s: tag %d is negative; negative tags are reserved", op, tag))
	}
}

// isendInternal bypasses the user-tag check for collective traffic.
func (c *Comm) isendInternal(dest, tag int, payload any) int64 {
	c.checkDest(dest, "isendInternal")
	return c.send(dest, tag, payload)
}

func (c *Comm) irecvInternal(src, tag int) *Request {
	req := &Request{abortCh: c.abortCh, done: make(chan struct{})}
	c.mbox.post(src, tag, req)
	return req
}

// recoverRank converts the panics the runtime uses for control flow into
// per-rank errors.
func recoverRank(rank int, p any) error {
	switch v := p.(type) {
	case abortSignal:
		return fmt.Errorf("mpi: rank %d aborted because another rank failed", rank)
	case transportFailure:
		return fmt.Errorf("mpi: rank %d transport failed: %w", rank, v.err)
	default:
		return fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
	}
}

// Run creates an in-process world of n ranks, runs fn once per rank in its
// own goroutine, and waits for all ranks to finish. The returned error
// joins every per-rank error. If any rank returns an error or panics, the
// world is aborted: ranks blocked in Wait or Barrier unwind with an abort
// error instead of deadlocking (MPI_Abort semantics).
func Run(n int, fn func(c *Comm) error) error {
	w := NewWorld(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = recoverRank(rank, p)
					w.Abort()
				}
			}()
			if err := fn(w.Comm(rank)); err != nil {
				errs[rank] = err
				w.Abort()
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Execute runs fn on a single communicator endpoint — the per-process
// analogue of Run for distributed worlds built with Connect. Runtime
// unwinds (transport failures, aborts) and panics are converted into
// errors; the connection is left open for the caller to Close.
func Execute(c *Comm, fn func(c *Comm) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = recoverRank(c.rank, p)
			c.abort()
		}
	}()
	return fn(c)
}
