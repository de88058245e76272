// Package faultinject wraps any transport.Conn with deterministic, seeded
// fault injection — the chaos layer of the fault-tolerance suite (DESIGN.md
// §10). A Script describes WHAT goes wrong (frame delays, drops,
// duplications, connection resets, a scripted rank crash) and a seed pins
// WHEN, so a failing chaos run reproduces exactly from its seed.
//
// The injector sits between the mpi runtime and the real backend and
// perturbs only the OUTBOUND path — which is sufficient, because delaying
// or dropping a frame at the sender is indistinguishable (to the peer) from
// the same fault in the network. Backend-internal traffic that never passes
// through Send (the TCP backend's heartbeats) is deliberately not faulted:
// liveness probes model the detector, not the workload.
//
// Fault classes and who may survive them:
//
//   - Delay: frames toward a destination are held for a random duration and
//     then delivered IN ORDER (a per-destination queue preserves the
//     non-overtaking guarantee). Every layer above must survive arbitrary
//     delays; the chaos soak asserts bit-exact training results under them.
//   - Reset: every Nth frame, the wrapped backend's established connections
//     are torn down via transport.Resetter (TCP redials within its retry
//     budget; backends without connections ignore it). Survivable by
//     construction — a reset is a blip, not a death.
//   - Crash: on the Nth outbound frame carrying a given tag, the endpoint
//     is killed (transport.Killer) exactly as SIGKILL would — the scripted
//     rank dies mid-phase and its peers must detect and degrade. Because
//     the PLS exchange stamps frames with the epoch as tag, "die on the
//     k-th exchange frame of epoch e" — i.e. mid-Communicate — is directly
//     expressible.
//   - Drop / duplicate: a frame silently vanishes or arrives twice. These
//     violate the reliable-delivery contract the mpi matching engine is
//     built on, so they are for transport-level tests with counting
//     handlers — NOT for end-to-end training runs, which are entitled to
//     assume TCP-like delivery.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"plshuffle/internal/transport"
)

// ErrCrashed is returned by every Send after the script's crash point. It
// is deliberately NOT a *transport.PeerError: the local rank did not lose a
// peer, it died itself — the mpi layer treats it as a fatal local failure
// and unwinds the rank, while the peers detect the death through their own
// transports.
var ErrCrashed = errors.New("faultinject: rank crashed by script")

// Script is a deterministic fault plan for one rank's endpoint. The zero
// Script injects nothing: a wrapped connection behaves exactly like the
// inner one (the conformance tests pin this transparency).
type Script struct {
	// Seed drives every probabilistic decision. Two connections with equal
	// scripts and equal Send sequences inject identical faults.
	Seed int64

	// DelayProb is the per-frame probability of holding a frame for a
	// uniform random duration in (0, MaxDelay]. Any positive DelayProb
	// routes ALL outbound frames through per-destination ordering queues so
	// delayed frames cannot be overtaken.
	DelayProb float64
	// MaxDelay bounds one injected delay. Required when DelayProb > 0.
	MaxDelay time.Duration

	// DropProb is the per-frame probability of silently discarding a frame.
	// Breaks reliable delivery — transport-level tests only.
	DropProb float64
	// DupProb is the per-frame probability of sending a frame twice.
	// Breaks exactly-once delivery — transport-level tests only.
	DupProb float64

	// ResetEvery, when positive, tears down the inner backend's established
	// connections (transport.Resetter) on every Nth outbound frame. Ignored
	// for backends without connections.
	ResetEvery int

	// CrashCount, when positive, kills the endpoint on the CrashCount-th
	// outbound frame whose tag equals CrashTag (1-based; the triggering
	// frame is lost, as a real mid-send death would lose it).
	CrashCount int
	// CrashTag selects which frames advance the crash counter. The PLS
	// exchange uses the epoch number as tag, so CrashTag=e targets epoch
	// e's Communicate phase.
	CrashTag int
}

// Validate reports the first nonsensical script field.
func (s Script) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DelayProb", s.DelayProb}, {"DropProb", s.DropProb}, {"DupProb", s.DupProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultinject: %s = %v outside [0,1]", p.name, p.v)
		}
	}
	if s.DelayProb > 0 && s.MaxDelay <= 0 {
		return fmt.Errorf("faultinject: DelayProb = %v requires a positive MaxDelay", s.DelayProb)
	}
	if s.ResetEvery < 0 {
		return fmt.Errorf("faultinject: ResetEvery = %d is negative", s.ResetEvery)
	}
	if s.CrashCount < 0 {
		return fmt.Errorf("faultinject: CrashCount = %d is negative", s.CrashCount)
	}
	return nil
}

// Injected is a snapshot of the faults the injector has committed so far —
// what a chaos test asserts against.
type Injected struct {
	Frames  int64 // outbound frames observed (dropped ones included)
	Delays  int64
	Drops   int64
	Dups    int64
	Resets  int64 // resets actually applied (inner implements Resetter)
	Crashed bool
}

// Conn interposes a Script between the caller and an inner transport.Conn.
// Create it with New.
type Conn struct {
	inner  transport.Conn
	script Script

	mu       sync.Mutex
	rng      *rand.Rand
	tagSeen  int // sends matching CrashTag so far
	crashed  bool
	closed   bool
	queues   map[int]*delayQueue
	asyncErr map[int]error // first delayed-send failure per destination
	inj      Injected

	stopCh chan struct{} // closed on Close/Kill; cancels pending delays

	failMu   sync.Mutex
	onFail   func(transport.PeerError)
	notified map[int]bool
}

// New wraps inner with the script's faults. It panics on an invalid script
// (a chaos harness bug, not a runtime condition). The wrapper delegates
// Stats, failure notification, and Kill to the inner connection, so it can
// stand in anywhere a transport.Conn is expected:
//
//	comm, err := mpi.Connect(func(h transport.Handler) (transport.Conn, error) {
//	        inner, err := tcp.New(cfg, h)
//	        if err != nil {
//	                return nil, err
//	        }
//	        return faultinject.New(inner, script), nil
//	})
func New(inner transport.Conn, script Script) *Conn {
	if err := script.Validate(); err != nil {
		panic(err)
	}
	c := &Conn{
		inner:    inner,
		script:   script,
		rng:      rand.New(rand.NewSource(script.Seed)),
		asyncErr: make(map[int]error),
		notified: make(map[int]bool),
		stopCh:   make(chan struct{}),
	}
	if script.DelayProb > 0 {
		c.queues = make(map[int]*delayQueue)
	}
	if fn, ok := inner.(transport.FailureNotifier); ok {
		fn.OnPeerFailure(c.notify)
	}
	return c
}

// Rank returns the inner connection's rank.
func (c *Conn) Rank() int { return c.inner.Rank() }

// Size returns the inner connection's world size.
func (c *Conn) Size() int { return c.inner.Size() }

// Stats delegates to the inner connection: dropped frames were never sent,
// duplicated frames really were sent twice.
func (c *Conn) Stats() transport.Stats { return c.inner.Stats() }

// Underlying exposes the wrapped connection (transport.Unwrapper), so
// the As* accessors (LivenessStatser, PeerAdmitter, JoinNotifier) reach the
// real backend through the injector.
func (c *Conn) Underlying() transport.Conn { return c.inner }

var _ transport.Unwrapper = (*Conn)(nil)

// CrashOn re-arms the crash point: the endpoint dies on the count-th
// outbound frame carrying tag from now on. Tests arm it where the tag is only
// known at run time (a collective's round, derived from its sequence number).
func (c *Conn) CrashOn(tag, count int) {
	c.mu.Lock()
	c.script.CrashTag, c.script.CrashCount, c.tagSeen = tag, count, 0
	c.mu.Unlock()
}

// Injected returns a snapshot of the committed faults.
func (c *Conn) Injected() Injected {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj
}

// decision is one frame's fate, drawn under the injector lock so the RNG
// consumption order is the Send call order.
type decision struct {
	crash bool
	reset bool
	drop  bool
	dup   bool
	delay time.Duration
}

func (c *Conn) decide(tag int) (decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return decision{}, ErrCrashed
	}
	if c.closed {
		return decision{}, fmt.Errorf("faultinject: Send on closed connection (rank %d)", c.inner.Rank())
	}
	var d decision
	c.inj.Frames++
	s := &c.script
	if s.CrashCount > 0 && tag == s.CrashTag {
		if c.tagSeen++; c.tagSeen == s.CrashCount {
			d.crash = true
			c.crashed = true
			c.inj.Crashed = true
			return d, nil // the dying send delivers nothing else
		}
	}
	if s.ResetEvery > 0 && c.inj.Frames%int64(s.ResetEvery) == 0 {
		d.reset = true
	}
	if s.DropProb > 0 && c.rng.Float64() < s.DropProb {
		d.drop = true
		c.inj.Drops++
		return d, nil
	}
	if s.DupProb > 0 && c.rng.Float64() < s.DupProb {
		d.dup = true
		c.inj.Dups++
	}
	if s.DelayProb > 0 && c.rng.Float64() < s.DelayProb {
		d.delay = time.Duration(c.rng.Int63n(int64(s.MaxDelay))) + 1
		c.inj.Delays++
	}
	return d, nil
}

// Send applies the script to one outbound frame and forwards the survivors
// to the inner connection. When delays are enabled every frame rides the
// destination's ordering queue (delayed or not), so the non-overtaking
// guarantee holds; queue-path failures surface on the NEXT Send toward that
// destination, mirroring how wire backends report asynchronous write
// failures.
//
// The returned size is the inner connection's own answer whenever the frame
// goes straight through. A frame the injector queues or drops has no inner
// answer by the time Send returns, so it reports the uncompressed
// transport.FrameWireSize estimate; a duplicate is the injector's frame, not
// the caller's, and is not reported. A send to the own rank is refused before
// the script sees it, as every backend refuses it.
func (c *Conn) Send(dst, tag int, payload any) (int64, error) {
	if dst == c.inner.Rank() {
		return 0, fmt.Errorf("faultinject: Send to rank %d: %w", dst, transport.ErrSelfSend)
	}
	d, err := c.decide(tag)
	if err != nil {
		return 0, err
	}
	if d.crash {
		c.crash()
		return 0, ErrCrashed
	}
	if d.reset {
		if r, ok := c.inner.(transport.Resetter); ok {
			r.ResetPeers()
			c.mu.Lock()
			c.inj.Resets++
			c.mu.Unlock()
		}
	}
	if c.queues == nil && !d.drop {
		wire, err := c.inner.Send(dst, tag, payload)
		if err == nil && d.dup {
			_, err = c.inner.Send(dst, tag, payload)
		}
		return wire, err
	}
	estimate := transport.FrameWireSize(payload)
	if d.drop {
		return estimate, nil
	}
	// The inner Send is deferred, so the caller's buffer is copied now
	// (transport contract: buffers are reusable the moment Send returns), and
	// a payload no backend carries is refused as every backend refuses it.
	p, err := transport.ClonePayload(payload)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if err := c.asyncErr[dst]; err != nil {
		c.mu.Unlock()
		return 0, err
	}
	dq := c.queues[dst]
	if dq == nil {
		dq = newDelayQueue(c, dst)
		c.queues[dst] = dq
	}
	c.mu.Unlock()
	err = dq.enqueue(tag, p, d.delay)
	if err == nil && d.dup {
		dup, _ := transport.ClonePayload(p) // p's type cloned once already
		err = dq.enqueue(tag, dup, 0)
	}
	if err != nil {
		return 0, err
	}
	return estimate, nil
}

// crash kills the endpoint mid-send: pending delayed frames are discarded
// (a dead process delivers nothing) and the inner connection is torn down
// as SIGKILL would tear it.
func (c *Conn) crash() {
	// Kill the inner endpoint FIRST: a frame sleeping out its delay when
	// the process dies must find a dead transport when it wakes, not sneak
	// onto the wire post-mortem.
	if k, ok := c.inner.(transport.Killer); ok {
		k.Kill()
	} else {
		c.inner.Close()
	}
	close(c.stopCh)
	c.mu.Lock()
	queues := mapValues(c.queues)
	c.mu.Unlock()
	for _, dq := range queues {
		dq.discard()
	}
	for _, dq := range queues {
		<-dq.done
	}
}

// Close drains the delay queues — pending frames are delivered promptly,
// their remaining delays cancelled — and closes the inner connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed || c.crashed {
		c.mu.Unlock()
		return c.inner.Close()
	}
	c.closed = true
	queues := mapValues(c.queues)
	c.mu.Unlock()
	close(c.stopCh) // cancel in-progress delays; frames still deliver
	for _, dq := range queues {
		dq.drain()
	}
	return c.inner.Close()
}

// Kill implements transport.Killer: queued frames are discarded and the
// inner endpoint dies instantly.
func (c *Conn) Kill() {
	c.mu.Lock()
	if c.crashed || c.closed {
		c.mu.Unlock()
		if k, ok := c.inner.(transport.Killer); ok {
			k.Kill()
		}
		return
	}
	c.crashed = true
	c.mu.Unlock()
	c.crash()
}

// OnPeerFailure implements transport.FailureNotifier: callbacks from the
// inner backend and from asynchronous queue-path failures are forwarded, at
// most once per peer.
func (c *Conn) OnPeerFailure(cb func(transport.PeerError)) {
	c.failMu.Lock()
	c.onFail = cb
	c.failMu.Unlock()
}

func (c *Conn) notify(pe transport.PeerError) {
	c.failMu.Lock()
	cb := c.onFail
	dup := c.notified[pe.Rank]
	c.notified[pe.Rank] = true
	c.failMu.Unlock()
	if cb != nil && !dup {
		cb(pe)
	}
}

// noteAsyncErr feeds a delayed send's peer failure into the notification
// path, then records the failure so the next Send toward dst surfaces it.
// Notifying first means a caller that sees the error from Send also sees
// the failure callback's effects.
func (c *Conn) noteAsyncErr(dst int, err error) {
	if pe, ok := transport.AsPeerError(err); ok {
		c.notify(*pe)
	}
	c.mu.Lock()
	if c.asyncErr[dst] == nil {
		c.asyncErr[dst] = err
	}
	c.mu.Unlock()
}

func mapValues(m map[int]*delayQueue) []*delayQueue {
	out := make([]*delayQueue, 0, len(m))
	for _, dq := range m {
		out = append(out, dq)
	}
	return out
}

var (
	_ transport.Conn            = (*Conn)(nil)
	_ transport.FailureNotifier = (*Conn)(nil)
	_ transport.Killer          = (*Conn)(nil)
)

// delayQueue serializes all frames toward one destination through a single
// worker goroutine, preserving per-(src,dst) FIFO order while individual
// frames sleep out their injected delays.
type delayQueue struct {
	c    *Conn
	dst  int
	done chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	q        []delayed
	inflight bool
	stop     bool
}

type delayed struct {
	tag     int
	payload any
	delay   time.Duration
}

func newDelayQueue(c *Conn, dst int) *delayQueue {
	dq := &delayQueue{c: c, dst: dst, done: make(chan struct{})}
	dq.cond = sync.NewCond(&dq.mu)
	go dq.run()
	return dq
}

func (dq *delayQueue) enqueue(tag int, payload any, delay time.Duration) error {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	if dq.stop {
		return fmt.Errorf("faultinject: Send to rank %d on stopped queue", dq.dst)
	}
	dq.q = append(dq.q, delayed{tag: tag, payload: payload, delay: delay})
	dq.cond.Signal()
	return nil
}

func (dq *delayQueue) run() {
	defer close(dq.done)
	for {
		dq.mu.Lock()
		for len(dq.q) == 0 && !dq.stop {
			dq.cond.Wait()
		}
		if len(dq.q) == 0 {
			dq.mu.Unlock()
			return
		}
		f := dq.q[0]
		dq.q = dq.q[1:]
		dq.inflight = true
		dq.mu.Unlock()
		if f.delay > 0 {
			t := time.NewTimer(f.delay)
			select {
			case <-t.C:
			case <-dq.c.stopCh:
				t.Stop() // delay cancelled; the frame still delivers
			}
		}
		if _, err := dq.c.inner.Send(dq.dst, f.tag, f.payload); err != nil {
			dq.c.noteAsyncErr(dq.dst, err)
		}
		dq.mu.Lock()
		dq.inflight = false
		dq.cond.Broadcast()
		dq.mu.Unlock()
	}
}

// drain blocks until every queued frame has been handed to the inner
// connection, then stops the worker.
func (dq *delayQueue) drain() {
	dq.mu.Lock()
	for len(dq.q) > 0 || dq.inflight {
		dq.cond.Wait()
	}
	dq.stop = true
	dq.cond.Broadcast()
	dq.mu.Unlock()
	<-dq.done
}

// discard throws queued frames away and stops the worker — the crash path.
func (dq *delayQueue) discard() {
	dq.mu.Lock()
	dq.q = nil
	dq.stop = true
	dq.cond.Broadcast()
	dq.mu.Unlock()
}
