package tcp

// The data plane: the per-peer outbound queues and their writer goroutines,
// the accept loop and the frame readers (DESIGN.md §7).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"plshuffle/internal/transport"
	"plshuffle/internal/transport/wirecomp"
)

// peer is what this rank keeps about one remote rank: the socket this rank
// dialed to it, an unbounded FIFO queue of frames waiting for that socket, a
// writer goroutine that drains the queue, and the order it reads the sockets
// the peer dialed in.
//
// One frame or batch is written at a time, by whoever holds writing: Send,
// for a frame that finds the peer idle (socket up, queue empty, nothing being
// written), or the writer goroutine, for everything else. The holder alone
// uses the write scratch (iov, wv, hdr).
type peer struct {
	rank int

	mu      sync.Mutex
	cond    *sync.Cond           // the writer goroutine waits on it
	queue   []*transport.WireBuf // marshalled frames, length prefix included
	spare   []*transport.WireBuf // recycled backing array for queue
	conn    net.Conn             // the dialed socket frames are written on; nil → dial on demand
	dialed  int64                // unix nanos conn was set up
	writing bool                 // a frame or batch is being written
	closing bool
	dead    bool                 // retry budget exhausted or silent too long; queue is discarded
	err     *transport.PeerError // why the peer is dead (set with dead)

	iov   net.Buffers               // the buffers of the write in progress
	wv    net.Buffers               // iov as WriteTo consumes it (a field, so it does not escape per write)
	hdr   [frameWireOffset + 1]byte // an inline frame's header and payload type code
	dials int64                     // writer goroutine only: the dial number the next hello carries

	in inbound
}

// inbound orders the sockets one source dialed to this rank: they are read
// one at a time, in dial order (peerConn), each to its end.
type inbound struct {
	mu   sync.Mutex
	cond sync.Cond // L is &mu
	next int64     // dial number of the socket to read next
}

// await blocks until socket n is the source's next to read and reports
// whether it is: false for a number whose turn has passed, and for every
// socket once the endpoint is torn down (release).
func (in *inbound) await(n int64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.next < n {
		in.cond.Wait()
	}
	return in.next == n
}

// done ends socket n's turn.
func (in *inbound) done(n int64) {
	in.mu.Lock()
	if in.next == n {
		in.next++
	}
	in.cond.Broadcast()
	in.mu.Unlock()
}

// release ends every turn: sockets still waiting for theirs are dropped.
func (in *inbound) release() {
	in.mu.Lock()
	in.next = math.MaxInt64
	in.cond.Broadcast()
	in.mu.Unlock()
}

// acceptLoop takes the sockets peers dial to this rank. Each is identified by
// its hello frame and read once its turn in the dialer's order comes.
func (c *Conn) acceptLoop() {
	defer c.readerWG.Done()
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			select {
			case <-c.closed:
			default:
				c.fail(fmt.Errorf("tcp: rank %d: data accept: %w", c.cfg.Rank, err))
			}
			return
		}
		c.track(conn)
		c.readerWG.Add(1)
		go func(conn net.Conn) {
			defer c.readerWG.Done()
			defer c.closeConn(conn)
			conn.SetReadDeadline(time.Now().Add(c.cfg.BootstrapTimeout))
			f, _, err := transport.ReadFrame(conn)
			if err != nil || f.Kind != transport.KindHello {
				return
			}
			r := int(f.Src)
			if r < 0 || r >= c.cfg.capacity() || r == c.cfg.Rank {
				return
			}
			conn.SetReadDeadline(time.Time{})
			c.recvKind[transport.KindHello].Add(1)
			c.lastHeard[r].Store(time.Now().UnixNano())
			in := &c.peers[r].in
			if in.await(f.Tag) {
				c.readLoop(r, conn)
			}
			in.done(f.Tag)
		}(conn)
	}
}

// closeConn forgets and closes a socket.
func (c *Conn) closeConn(conn net.Conn) {
	c.untrack(conn)
	conn.Close()
}

// dropConn retires a socket this rank dialed: the writer dials afresh for
// its next batch. Closing it sends what is still queued in the kernel, then
// FIN; the peer never writes on it, so the close discards nothing unread.
func (c *Conn) dropConn(p *peer, conn net.Conn) {
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.mu.Unlock()
	c.closeConn(conn)
}

// awaitFIN reads a socket this rank dialed, on which the peer never writes:
// the read returns at the peer's FIN or an error, and the socket is retired
// either way. A byte arriving is a protocol error.
func (c *Conn) awaitFIN(p *peer, conn net.Conn) {
	defer c.readerWG.Done()
	var b [1]byte
	if n, _ := conn.Read(b[:]); n > 0 {
		c.fail(fmt.Errorf("tcp: rank %d: rank %d wrote on a socket this rank dialed", c.cfg.Rank, p.rank))
	}
	c.dropConn(p, conn)
}

// readLoop decodes inbound frames from one accepted socket until its end or
// an error. One persistent frame buffer is reused across reads
// (ReadFrameInto); the frame payload aliasing it is consumed by
// DecodePayload before the next read, so the steady-state receive path
// allocates only the decoded value — and not even that for a []float32 or
// []byte payload, which ReadFrameInto reads from the socket into a pooled
// slice that is delivered as it is. A compressed frame is inflated into a
// pooled buffer too, whatever this rank's own Compress says.
func (c *Conn) readLoop(rank int, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var scratch []byte
	for {
		// Without heartbeats reads block indefinitely — epochs between
		// exchanges can be arbitrarily long; with them a healthy peer
		// guarantees traffic at least every HeartbeatInterval.
		if c.cfg.HeartbeatInterval > 0 {
			conn.SetReadDeadline(time.Now().Add(silentBeats * c.cfg.HeartbeatInterval))
		}
		f, floats, body, n, err := transport.ReadFrameInto(br, &scratch)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				c.silenced(c.peers[rank])
			}
			return
		}
		if int(f.Src) != rank {
			// The socket's hello proved who is on the other end; a frame
			// naming another source would be matched as that rank's.
			transport.PutFloat32s(floats)
			transport.PutBytes(body)
			c.fail(fmt.Errorf("tcp: rank %d: a frame on rank %d's socket claims source %d", c.cfg.Rank, rank, f.Src))
			return
		}
		c.bytesRecv.Add(int64(n))
		c.recvKind[f.Kind].Add(1)
		c.recvKindBytes[f.Kind].Add(int64(n))
		c.lastHeard[rank].Store(time.Now().UnixNano())
		switch f.Kind {
		case transport.KindData, transport.KindDataRef, transport.KindDataZ:
			if int(f.Dst) != c.cfg.Rank {
				// The sender counted it sent; dropping it would leave a
				// receiver waiting for it without a word.
				transport.PutFloat32s(floats)
				transport.PutBytes(body)
				c.fail(fmt.Errorf("tcp: rank %d: a frame on rank %d's socket is addressed to rank %d", c.cfg.Rank, rank, f.Dst))
				return
			}
			var v any
			var derr error
			switch {
			case floats != nil:
				v = floats
			case body != nil:
				v = body
			case f.Kind == transport.KindDataZ:
				// Inflate into a pooled buffer of the declared size and hand
				// that buffer on: a sample batch is delivered in it, not copied
				// out of a scratch.
				dl, zerr := wirecomp.DecodedLen(f.Payload)
				if zerr == nil && dl > transport.MaxFramePayload {
					zerr = fmt.Errorf("decompressed payload %d exceeds frame limit", dl)
				}
				var raw []byte
				if zerr == nil {
					raw = transport.GetBytes(dl)
					if _, zerr = wirecomp.Decode(raw[:0], f.Payload); zerr != nil {
						transport.PutBytes(raw)
					}
				}
				if zerr != nil {
					c.fail(fmt.Errorf("tcp: rank %d: compressed payload from rank %d: %w", c.cfg.Rank, rank, zerr))
					continue
				}
				v, derr = transport.DecodePayloadOwned(raw)
			default:
				v, derr = transport.DecodePayload(f.Payload)
			}
			if derr != nil {
				c.fail(fmt.Errorf("tcp: rank %d: payload from rank %d: %w", c.cfg.Rank, rank, derr))
				continue
			}
			c.framesRecv.Add(1)
			c.handler(transport.Frame{Src: rank, Dst: c.cfg.Rank, Tag: int(f.Tag), Payload: v, Wire: int64(n)})
		case transport.KindPing:
			// Liveness probe: the successful read is the signal; nothing to
			// deliver. (Byte accounting above already includes it.)
		default:
			// Control frames are not expected mid-stream; ignore.
		}
	}
}

// writeLoop drains one peer's queue. Each pass waits out a write Send is
// making, swaps out everything queued since the last write and pushes it in a
// single vectored write (writev), so many small frames queued during one
// compute phase cost one syscall — the flush-on-drain coalescing. On write
// failure the connection is redialed with exponential backoff until
// RetryTimeout runs out, which marks the peer dead and records a wrapped
// error.
func (c *Conn) writeLoop(p *peer) {
	defer c.writerWG.Done()
	for {
		p.mu.Lock()
		for p.writing || (len(p.queue) == 0 && !p.closing) {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closing {
			p.mu.Unlock()
			return
		}
		batch := p.queue
		if p.spare != nil {
			p.queue = p.spare[:0]
			p.spare = nil
		} else {
			p.queue = nil
		}
		p.writing = true
		p.mu.Unlock()

		err := c.writeBatch(p, batch)
		for _, wb := range batch {
			transport.PutWireBuf(wb)
		}
		if err == errPingsAbandonedOnClose {
			// Teardown overtook a liveness probe to a peer that is already
			// gone — at the end of a run the fastest rank closes first, and
			// its exit must not read as a failure to the ranks behind it.
			p.mu.Lock()
			p.writing = false
			for _, wb := range p.queue {
				transport.PutWireBuf(wb)
			}
			p.queue = nil
			p.mu.Unlock()
			return
		}
		if err != nil {
			pe, ok := transport.AsPeerError(err)
			if !ok {
				pe = &transport.PeerError{Rank: p.rank, Phase: transport.PhaseSend, Err: err}
			}
			p.mu.Lock()
			p.writing = false
			p.mu.Unlock()
			c.declareDead(p, pe)
			return
		}
		clear(batch)
		p.mu.Lock()
		p.writing = false
		if p.spare == nil {
			p.spare = batch[:0]
		}
		p.mu.Unlock()
	}
}

// errPingsAbandonedOnClose reports that a retried batch consisted solely of
// liveness probes and the local endpoint began closing: the pings are
// dropped rather than pressed through the retry budget, because a peer that
// stopped answering while we ourselves are tearing down is almost always a
// peer that finished the run and exited first, not a failure.
var errPingsAbandonedOnClose = errors.New("tcp: closing: undelivered liveness probes abandoned")

// pingsOnly reports whether every marshalled frame in the batch is a
// KindPing probe (the wire kind is byte 4, after the length prefix).
func pingsOnly(batch []*transport.WireBuf) bool {
	for _, wb := range batch {
		if len(wb.B) <= 4 || wb.B[4] != transport.KindPing {
			return false
		}
	}
	return true
}

// writeBatch writes a run of marshalled frames to the peer as one vectored
// write, establishing or re-establishing the connection as needed. On a
// failed write the socket is dropped and the batch is resent on a fresh one
// from the first frame not fully written: the peer reads the old socket to
// its end before the new one, delivering every whole frame on it and
// discarding the truncated tail, so each frame arrives once and in order.
func (c *Conn) writeBatch(p *peer, batch []*transport.WireBuf) error {
	done := 0                    // frames fully written
	phase := transport.PhaseDial // no connection ever established this batch
	var lastErr error
	r := retryUntil(time.Now().Add(c.cfg.RetryTimeout))
	for r.next() {
		if c.killed.Load() {
			return &transport.PeerError{Rank: p.rank, Phase: transport.PhaseClose,
				Err: errors.New("transport killed")}
		}
		p.mu.Lock()
		closing, dead := p.closing, p.err
		p.mu.Unlock()
		if dead != nil {
			return dead // declared dead meanwhile (silenced): no redial
		}
		if r.attempts > 1 && closing && pingsOnly(batch[done:]) {
			return errPingsAbandonedOnClose
		}
		conn, err := c.peerConn(p, r.dialTimeout())
		if err != nil {
			lastErr = err
			continue
		}
		phase = transport.PhaseSend
		p.iov = p.iov[:0]
		for _, wb := range batch[done:] {
			p.iov = append(p.iov, wb.B)
		}
		n, err := p.writev(conn)
		if err == nil {
			return nil
		}
		lastErr = err
		for done < len(batch) && n >= int64(len(batch[done].B)) {
			n -= int64(len(batch[done].B))
			done++
		}
		c.dropConn(p, conn)
	}
	return &transport.PeerError{Rank: p.rank, Phase: phase,
		Err: fmt.Errorf("tcp: rank %d: sending to rank %d failed after %d attempts (retry deadline %v exceeded): %w",
			c.cfg.Rank, p.rank, r.attempts, c.cfg.RetryTimeout, lastErr)}
}

// writeInline writes one frame on Send's goroutine, which holds p.writing:
// the peer's socket was up and nothing was queued or being written, so the
// frame is next on the wire. Either wb holds the whole frame, or the header
// goes from the peer's scratch and the body from the caller's memory. A
// failed write drops the socket and puts the frame at the head of the queue —
// copied into a buffer first if it was the caller's — and the writer
// goroutine resends it on a fresh dial, as it does a batch cut short.
func (c *Conn) writeInline(p *peer, conn net.Conn, wb *transport.WireBuf, tag int, code byte, body []byte, payload any) {
	if wb != nil {
		p.iov = append(p.iov[:0], wb.B)
	} else {
		// A header-only frame cannot exceed the payload limit, AppendFrame's
		// one error; the length prefix is patched to cover the payload.
		h, _ := transport.AppendFrame(p.hdr[:0], transport.WireFrame{
			Kind: transport.KindData, Src: int32(c.cfg.Rank), Dst: int32(p.rank), Tag: int64(tag)})
		h = append(h, code)
		binary.LittleEndian.PutUint32(h, uint32(len(h)-4+len(body)))
		p.iov = append(p.iov[:0], h, body)
	}
	_, err := p.writev(conn)
	if err != nil {
		c.dropConn(p, conn)
		if wb == nil {
			// refBody admitted the payload, so encoding it cannot fail.
			wb, _ = c.encodeFrame(p.rank, tag, payload)
		}
	}
	p.mu.Lock()
	p.writing = false
	if err != nil && !p.dead {
		p.queue = append(p.queue, nil)
		copy(p.queue[1:], p.queue)
		p.queue[0] = wb
		wb = nil
	}
	if len(p.queue) > 0 || p.closing {
		p.cond.Signal()
	}
	p.mu.Unlock()
	transport.PutWireBuf(wb)
}

// writev writes p.iov to conn in one vectored write under writeTimeout and
// drops the buffer references; the caller holds p.writing.
func (p *peer) writev(conn net.Conn) (int64, error) {
	p.wv = p.iov // WriteTo advances its receiver; keep p.iov's header intact
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := p.wv.WriteTo(conn)
	if err == nil {
		conn.SetWriteDeadline(time.Time{})
	}
	clear(p.iov) // the backing array is reused by the next write
	return n, err
}

// peerConn returns the socket frames to the peer are written on, dialing the
// peer's data listener within timeout if there is none. The hello that opens
// the socket carries its dial number in Tag, spent only once the hello is
// written: the numbers have no gaps, so the peer, which reads them in order,
// never waits on a dial that failed.
func (c *Conn) peerConn(p *peer, timeout time.Duration) (net.Conn, error) {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		return conn, nil
	}

	c.addrMu.RLock()
	addr := c.addrs[p.rank]
	c.addrMu.RUnlock()
	if addr == "" {
		return nil, fmt.Errorf("rank %d not admitted (no address)", p.rank)
	}
	conn, err := c.cfg.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c.track(conn)
	// A header-only frame cannot exceed the payload limit, MarshalFrame's one
	// error.
	hello, _ := transport.MarshalFrame(transport.WireFrame{
		Kind: transport.KindHello,
		Src:  int32(c.cfg.Rank),
		Dst:  int32(p.rank),
		Tag:  p.dials,
	})
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(hello); err != nil {
		c.closeConn(conn)
		return nil, fmt.Errorf("hello to %s: %w", addr, err)
	}
	conn.SetWriteDeadline(time.Time{})
	p.dials++
	c.bytesSent.Add(int64(len(hello)))
	c.sentKind[transport.KindHello].Add(1)

	p.mu.Lock()
	p.conn, p.dialed = conn, time.Now().UnixNano()
	p.mu.Unlock()
	c.readerWG.Add(1)
	go c.awaitFIN(p, conn)
	return conn, nil
}
