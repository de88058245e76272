package tcp

// Liveness: the heartbeat prober, failure notification, last-heard stamps,
// and the fault-injection hooks that kill an endpoint or reset its
// connections (DESIGN.md §10).

import (
	"errors"
	"fmt"
	"net"
	"time"

	"plshuffle/internal/transport"
)

// heartbeatLoop enqueues a KindPing frame to every live peer each interval.
// Pings ride the normal write path — dial, retry budget, deadlines — so a
// dead peer is detected (and surfaces through OnPeerFailure) even by ranks
// that never send it data. A peer that holds the socket this rank dialed
// open and has said nothing for silentBeats intervals since it accepted
// that socket is frozen: its kernel takes the pings, it never answers, and
// it is declared dead.
func (c *Conn) heartbeatLoop() {
	defer c.beatWG.Done()
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		var now time.Time
		select {
		case <-c.closed:
			return
		case now = <-ticker.C:
		}
		for _, p := range c.peers {
			if p == nil {
				continue
			}
			// A latent joiner slot has no address yet: pinging it would burn
			// the dial budget and poison the failure registry with a rank
			// that was never alive. Probing begins once the peer is admitted.
			c.addrMu.RLock()
			admitted := c.addrs[p.rank] != ""
			c.addrMu.RUnlock()
			if !admitted {
				continue
			}
			p.mu.Lock()
			open, since := p.conn != nil, max(p.dialed, c.lastHeard[p.rank].Load())
			p.mu.Unlock()
			if open && now.UnixNano()-since > int64(silentBeats*c.cfg.HeartbeatInterval) {
				c.silenced(p)
			}
			wb := transport.GetWireBuf()
			buf, err := transport.AppendFrame(wb.B[:0], transport.WireFrame{
				Kind: transport.KindPing,
				Src:  int32(c.cfg.Rank),
				Dst:  int32(p.rank),
			})
			wb.B = buf
			if err != nil {
				transport.PutWireBuf(wb)
				continue
			}
			p.mu.Lock()
			if p.dead || p.closing {
				p.mu.Unlock()
				transport.PutWireBuf(wb)
				continue
			}
			p.queue = append(p.queue, wb)
			p.cond.Signal()
			p.mu.Unlock()
			c.countSent(transport.KindPing, int64(len(buf)))
		}
	}
}

// OnPeerFailure registers the callback invoked (at most once per peer) when
// that peer's retry budget runs out or, under heartbeats, it stays silent
// for silentBeats intervals. Implements transport.FailureNotifier.
func (c *Conn) OnPeerFailure(cb func(transport.PeerError)) {
	c.errMu.Lock()
	c.onFail = cb
	c.errMu.Unlock()
}

// silenced declares p dead because nothing was heard from it for
// silentBeats heartbeat intervals — unless this rank is closing, when
// peers fall silent by design.
func (c *Conn) silenced(p *peer) {
	select {
	case <-c.closed:
		return
	default:
	}
	c.declareDead(p, &transport.PeerError{Rank: p.rank, Phase: transport.PhaseRecv,
		Err: fmt.Errorf("tcp: rank %d: nothing heard from rank %d for %v", c.cfg.Rank, p.rank, silentBeats*c.cfg.HeartbeatInterval)})
}

// declareDead records pe and, the first time p fails, marks it dead, drops
// what is queued for it and closes the socket this rank dialed to it, so
// that no writer redials it and Close waits for no drain to it, then
// reports the failure.
func (c *Conn) declareDead(p *peer, pe *transport.PeerError) {
	c.fail(pe)
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead, p.err = true, pe
	for _, wb := range p.queue {
		transport.PutWireBuf(wb)
	}
	p.queue = nil
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		conn.Close() // its awaitFIN returns and retires it
	}
	c.notifyPeerFailure(*pe)
}

func (c *Conn) notifyPeerFailure(pe transport.PeerError) {
	if c.killed.Load() {
		return // our own teardown, not a remote failure
	}
	c.errMu.Lock()
	cb := c.onFail
	c.errMu.Unlock()
	if cb != nil {
		cb(pe)
	}
}

// Kill tears the endpoint down instantly — no drain, no goodbye frames —
// exactly as SIGKILL would: every socket and the listener close, queued
// frames are discarded, a Send blocked in an inline write returns, and
// subsequent Sends fail. Peers observe the death
// through their own detectors (read resets, heartbeat silence, exhausted
// redial budgets). Implements transport.Killer for fault-injection tests.
func (c *Conn) Kill() {
	c.killed.Store(true)
	c.closeOnce.Do(func() {
		close(c.closed)
		for _, p := range c.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.closing = true
			p.dead = true
			if p.err == nil {
				p.err = &transport.PeerError{Rank: p.rank, Phase: transport.PhaseClose,
					Err: errors.New("transport killed")}
			}
			for _, wb := range p.queue {
				transport.PutWireBuf(wb)
			}
			p.queue = nil
			p.conn = nil
			p.cond.Broadcast()
			p.mu.Unlock()
			p.in.release()
		}
		if c.listener != nil {
			c.listener.Close()
		}
		if c.rendezvousLn != nil {
			c.rendezvousLn.Close()
		}
		c.connsMu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		c.conns = nil
		c.connsMu.Unlock()
		c.beatWG.Wait()
	})
}

// ResetPeers forces every established connection to be recycled WITHOUT
// marking any peer dead — the transient-blip fault (transport.Resetter).
// Each socket's write side is shut down (half-close): bytes already accepted
// by the kernel still flush, the reader drains them to the FIN, the writer
// sends its next batch on a fresh dial, and the receiver reads that only
// after the old socket's end. Half-close rather than full close is what
// makes the fault survivable-by-construction: a full close would destroy
// inbound frames sitting in the local receive buffer — frames the peer's
// write accounting already counted as delivered, so nothing would ever
// resend them and the next collective would hang. (A fault that loses
// acknowledged frames is a peer death, not a reset; inject that with Kill.)
// Only an exhausted retry budget — never the reset itself — surfaces as a
// peer failure.
func (c *Conn) ResetPeers() {
	select {
	case <-c.closed:
		return // already torn down; nothing to reset
	default:
	}
	// Detach each peer's write socket first so writers redial instead of
	// queueing more writes onto a socket that is about to refuse them.
	for _, p := range c.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.conn = nil
		p.mu.Unlock()
	}
	c.connsMu.Lock()
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.connsMu.Unlock()
	for _, conn := range conns {
		// The socket stays tracked and its read side stays open until the
		// peer closes its end: a reader then retires it. Close and Kill can
		// still tear it down meanwhile.
		if cw, ok := conn.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		} else {
			// Injected test dials may not be TCP; a full close is the best
			// available approximation there.
			c.closeConn(conn)
		}
	}
}

// LastHeard returns the time any frame (data, hello, or heartbeat) was last
// read from rank, or the zero time if never (and always for the own rank).
// Implements transport.LivenessStatser.
func (c *Conn) LastHeard(rank int) time.Time {
	if rank < 0 || rank >= len(c.lastHeard) {
		return time.Time{}
	}
	ns := c.lastHeard[rank].Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

var (
	_ transport.FailureNotifier = (*Conn)(nil)
	_ transport.Killer          = (*Conn)(nil)
	_ transport.Resetter        = (*Conn)(nil)
	_ transport.LivenessStatser = (*Conn)(nil)
)
