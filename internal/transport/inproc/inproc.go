// Package inproc is the in-process transport backend: all ranks live in one
// OS process (one goroutine per rank, as mpi.Run arranges) and a Send is a
// synchronous function call into the destination rank's handler. This is
// the refactored form of the original channel-based runtime — delivery
// order per (source, destination) pair is the sender's program order, which
// is exactly the non-overtaking guarantee the mailbox layer needs.
//
// Every payload is copied (transport.ClonePayload) so distributed-memory
// semantics hold despite the shared address space, and a payload type the
// wire codec cannot carry is refused with the codec's error, as TCP refuses
// it, so a program that runs here runs across processes too.
package inproc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"plshuffle/internal/transport"
)

// Network is a world of in-process ranks. Create it with NewNetwork, then
// Attach each rank's handler before any traffic flows.
type Network struct {
	size     int
	handlers []transport.Handler
	mu       sync.RWMutex
	stats    []connStats
	dead     []bool                      // rank → killed (fault injection)
	onFail   []func(transport.PeerError) // per-rank failure callbacks
}

type connStats struct {
	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
}

// NewNetwork creates an inproc network with the given number of ranks.
func NewNetwork(size int) *Network {
	if size <= 0 {
		panic(fmt.Sprintf("inproc: NewNetwork(%d): size must be positive", size))
	}
	return &Network{
		size:     size,
		handlers: make([]transport.Handler, size),
		stats:    make([]connStats, size),
		dead:     make([]bool, size),
		onFail:   make([]func(transport.PeerError), size),
	}
}

// Kill simulates the abrupt death of one rank: its handler stops receiving,
// every Send toward it fails with a *transport.PeerError, and every other
// rank's registered failure callback fires — the in-process analogue of a
// SIGKILLed process whose peers detect the silence. Killing a rank twice is
// a no-op. This is the fault-injection hook the chaos tests use to exercise
// graceful degradation without real processes.
func (n *Network) Kill(rank int) {
	if rank < 0 || rank >= n.size {
		panic(fmt.Sprintf("inproc: Kill(%d): rank out of range [0,%d)", rank, n.size))
	}
	n.mu.Lock()
	if n.dead[rank] {
		n.mu.Unlock()
		return
	}
	n.dead[rank] = true
	n.handlers[rank] = nil
	callbacks := make([]func(transport.PeerError), 0, n.size)
	for r, cb := range n.onFail {
		if r != rank && !n.dead[r] && cb != nil {
			callbacks = append(callbacks, cb)
		}
	}
	n.mu.Unlock()
	pe := transport.PeerError{Rank: rank, Phase: transport.PhaseRecv}
	for _, cb := range callbacks {
		cb(pe)
	}
}

// Attach registers rank's inbound handler and returns its connection
// endpoint. Each rank must be attached exactly once before it exchanges
// traffic.
func (n *Network) Attach(rank int, h transport.Handler) transport.Conn {
	if rank < 0 || rank >= n.size {
		panic(fmt.Sprintf("inproc: Attach(%d): rank out of range [0,%d)", rank, n.size))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.handlers[rank] != nil {
		panic(fmt.Sprintf("inproc: Attach(%d): rank already attached", rank))
	}
	n.handlers[rank] = h
	return &conn{net: n, rank: rank}
}

type conn struct {
	net    *Network
	rank   int
	closed atomic.Bool
}

func (c *conn) Rank() int { return c.rank }
func (c *conn) Size() int { return c.net.size }

// Send copies the payload and delivers it synchronously into the destination
// handler. It fails only for an out-of-range, dead or detached destination, the
// sending rank itself, a closed connection, or a payload type outside the wire
// codec's set. The size it returns is the deterministic frame size a wire
// backend would have moved (transport.FrameWireSize), so byte accounting
// behaves identically across backends.
func (c *conn) Send(dst, tag int, payload any) (int64, error) {
	if dst < 0 || dst >= c.net.size {
		return 0, fmt.Errorf("inproc: Send: rank %d out of range [0,%d)", dst, c.net.size)
	}
	if dst == c.rank {
		return 0, fmt.Errorf("inproc: Send to rank %d: %w", dst, transport.ErrSelfSend)
	}
	if c.closed.Load() {
		return 0, fmt.Errorf("inproc: Send: connection for rank %d is closed", c.rank)
	}
	c.net.mu.RLock()
	h := c.net.handlers[dst]
	dead := c.net.dead[dst]
	c.net.mu.RUnlock()
	if dead {
		return 0, &transport.PeerError{Rank: dst, Phase: transport.PhaseSend}
	}
	if h == nil {
		return 0, fmt.Errorf("inproc: Send: destination rank %d not attached", dst)
	}
	clone, err := transport.ClonePayload(payload)
	if err != nil {
		return 0, err
	}
	sz := transport.PayloadWireSize(payload)
	src, dstStats := &c.net.stats[c.rank], &c.net.stats[dst]
	src.framesSent.Add(1)
	src.bytesSent.Add(sz)
	dstStats.framesRecv.Add(1)
	dstStats.bytesRecv.Add(sz)
	wire := transport.FrameWireSize(payload)
	h(transport.Frame{Src: c.rank, Dst: dst, Tag: tag, Payload: clone, Wire: wire})
	return wire, nil
}

func (c *conn) Stats() transport.Stats {
	s := &c.net.stats[c.rank]
	return transport.Stats{
		FramesSent: s.framesSent.Load(),
		FramesRecv: s.framesRecv.Load(),
		BytesSent:  s.bytesSent.Load(),
		BytesRecv:  s.bytesRecv.Load(),
		Wire:       false,
	}
}

// Close marks the endpoint closed. Delivery is synchronous, so there is
// nothing to drain.
func (c *conn) Close() error {
	c.closed.Store(true)
	return nil
}

// OnPeerFailure registers this rank's peer-failure callback (invoked by
// Network.Kill for every surviving rank). Implements
// transport.FailureNotifier.
func (c *conn) OnPeerFailure(cb func(transport.PeerError)) {
	c.net.mu.Lock()
	c.net.onFail[c.rank] = cb
	c.net.mu.Unlock()
}

// Kill abruptly removes this rank from the network (transport.Killer):
// the fault-injection analogue of the process dying.
func (c *conn) Kill() {
	c.closed.Store(true)
	c.net.Kill(c.rank)
}

var (
	_ transport.FailureNotifier = (*conn)(nil)
	_ transport.Killer          = (*conn)(nil)
)
