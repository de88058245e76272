package tcp

// Bootstrap: the rendezvous that forms the world (root and non-root sides),
// and its elastic extension — the root's mid-run join accept loop and
// AdmitPeer (DESIGN.md §15).

import (
	"fmt"
	"net"
	"time"

	"plshuffle/internal/transport"
)

func (c *Conn) bootstrap(advertise string) error {
	deadline := time.Now().Add(c.cfg.BootstrapTimeout)
	if c.cfg.Rank == 0 && !c.cfg.Join {
		return c.bootstrapRoot(advertise, deadline)
	}
	return c.rendezvous(advertise, deadline)
}

// bootstrapRoot collects every peer's hello on the rendezvous listener and
// answers with the full rank↔address table. Connections that drop or send
// garbage before completing a hello are skipped, not fatal: the peer side
// retries the whole round, so a flaky network just costs a backoff step. A
// second hello from the same rank replaces the first connection (the peer
// evidently lost the previous round before receiving the table).
func (c *Conn) bootstrapRoot(advertise string, deadline time.Time) error {
	ln := c.cfg.RendezvousListener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", c.cfg.Rendezvous)
		if err != nil {
			return fmt.Errorf("tcp: rank 0: binding rendezvous %s: %w", c.cfg.Rendezvous, err)
		}
	}
	// An elastic world (MaxSize > Size) keeps the rendezvous open after
	// bootstrap so late joiners can rendezvous mid-run; joinAcceptLoop takes
	// it over, and Close/Kill tear it down.
	keepOpen := c.cfg.capacity() > c.cfg.Size
	defer func() {
		if keepOpen {
			if tl, ok := ln.(*net.TCPListener); ok {
				tl.SetDeadline(time.Time{})
			}
			c.rendezvousLn = ln
		} else {
			ln.Close()
		}
	}()
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}

	// Tables are sized by the full rank name space; latent joiner slots
	// stay empty until admission.
	addrs := make([]string, c.cfg.capacity())
	addrs[0] = advertise
	conns := make([]net.Conn, c.cfg.Size) // per-rank hello connection
	defer func() {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
	}()
	seen := 0
	for seen < c.cfg.Size-1 {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("tcp: rank 0: rendezvous accept (have %d/%d hellos): %w", seen, c.cfg.Size-1, err)
		}
		conn.SetDeadline(deadline)
		f, _, err := transport.ReadFrame(conn)
		if err != nil || f.Kind != transport.KindHello {
			conn.Close() // dropped or garbled dial; the peer retries
			continue
		}
		r := int(f.Src)
		if r <= 0 || r >= c.cfg.Size {
			conn.Close()
			continue
		}
		if conns[r] != nil {
			// The peer retried after losing its previous round; the newer
			// connection supersedes the stale one.
			conns[r].Close()
		} else {
			seen++
		}
		addrs[r] = string(f.Payload)
		conns[r] = conn
	}
	table, err := transport.MarshalFrame(transport.WireFrame{
		Kind:    transport.KindTable,
		Src:     0,
		Dst:     -1,
		Payload: transport.EncodeAddrTable(addrs),
	})
	if err != nil {
		return err
	}
	for _, conn := range conns {
		if conn == nil {
			continue
		}
		if _, err := conn.Write(table); err != nil {
			return fmt.Errorf("tcp: rank 0: sending rendezvous table: %w", err)
		}
	}
	c.addrs = addrs
	return nil
}

// rendezvous is the non-root side of the rendezvous — dial, announce the
// data address, wait for the table — retrying the whole round with the dial
// backoff (retry) until the deadline. Retrying the full round (not just the
// dial) is what lets a rank survive a flaky rendezvous: a listener that
// accepts and then drops the connection just costs one backoff step.
//
// A bootstrap-time peer announces its rank; a mid-run joiner (cfg.Join)
// announces Src == -1, adopts the slot the root assigned it from the reply's
// Dst, and treats a table of the wrong capacity as fatal — the running world
// was started with another -max-world, and no retry changes that.
func (c *Conn) rendezvous(advertise string, deadline time.Time) error {
	join := c.cfg.Join
	src, what := int32(c.cfg.Rank), "rendezvous"
	if join {
		src, what = -1, "join"
	}
	hello, err := transport.MarshalFrame(transport.WireFrame{
		Kind:    transport.KindHello,
		Src:     src,
		Dst:     0,
		Payload: []byte(advertise),
	})
	if err != nil {
		return err
	}
	var lastErr error
	for r := retryUntil(deadline); r.next(); {
		f, err := c.rendezvousRound(hello, what, r.dialTimeout(), deadline)
		if err != nil {
			lastErr = err
			continue
		}
		if f.Kind != transport.KindTable || (join && f.Dst < 0) {
			lastErr = fmt.Errorf("%s answered with frame kind %d dst %d, want a table", what, f.Kind, f.Dst)
			continue
		}
		addrs, err := transport.DecodeAddrTable(f.Payload)
		if err != nil {
			lastErr = fmt.Errorf("decoding %s table: %w", what, err)
			continue
		}
		if len(addrs) != c.cfg.capacity() {
			if join {
				return fmt.Errorf("tcp: join table has %d entries, want capacity %d (mismatched -max-world?)",
					len(addrs), c.cfg.capacity())
			}
			lastErr = fmt.Errorf("rendezvous table has %d entries, want %d", len(addrs), c.cfg.capacity())
			continue
		}
		if join {
			if int(f.Dst) >= c.cfg.capacity() {
				return fmt.Errorf("tcp: join assigned rank %d beyond capacity %d", f.Dst, c.cfg.capacity())
			}
			c.cfg.Rank = int(f.Dst)
			c.cfg.Size = c.cfg.capacity()
		}
		c.addrs = addrs
		return nil
	}
	if join {
		return fmt.Errorf("tcp: join via %s failed within %v: %w",
			c.cfg.Rendezvous, c.cfg.BootstrapTimeout, lastErr)
	}
	return fmt.Errorf("tcp: rank %d: rendezvous %s failed within %v: %w",
		c.cfg.Rank, c.cfg.Rendezvous, c.cfg.BootstrapTimeout, lastErr)
}

// rendezvousRound is one attempt's socket work: dial within dialTimeout, send
// the hello, read the reply frame by the deadline.
func (c *Conn) rendezvousRound(hello []byte, what string, dialTimeout time.Duration, deadline time.Time) (transport.WireFrame, error) {
	conn, err := c.cfg.Dial(c.cfg.Rendezvous, dialTimeout)
	if err != nil {
		return transport.WireFrame{}, fmt.Errorf("dialing rendezvous: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	if _, err := conn.Write(hello); err != nil {
		return transport.WireFrame{}, fmt.Errorf("sending %s hello: %w", what, err)
	}
	f, _, err := transport.ReadFrame(conn)
	if err != nil {
		return transport.WireFrame{}, fmt.Errorf("reading %s table: %w", what, err)
	}
	return f, nil
}

// --- elastic join (DESIGN.md §15) ---

// OnJoinRequest registers the callback invoked once per joiner the
// rendezvous admits (rank 0 of an elastic world only; other ranks never
// fire it). Joins that arrived before registration are flushed to the
// callback immediately. Implements transport.JoinNotifier.
func (c *Conn) OnJoinRequest(cb func(transport.JoinRequest)) {
	c.errMu.Lock()
	c.onJoin = cb
	pending := c.pendingJoins
	c.pendingJoins = nil
	c.errMu.Unlock()
	for _, jr := range pending {
		cb(jr)
	}
}

func (c *Conn) notifyJoin(jr transport.JoinRequest) {
	c.errMu.Lock()
	cb := c.onJoin
	if cb == nil {
		c.pendingJoins = append(c.pendingJoins, jr)
	}
	c.errMu.Unlock()
	if cb != nil {
		cb(jr)
	}
}

// AdmitPeer records a joiner's data address so traffic toward its slot dials
// like any bootstrap-time peer. Every running member calls it when the join
// protocol announces the new rank. Implements transport.PeerAdmitter.
func (c *Conn) AdmitPeer(rank int, addr string) error {
	if rank == c.cfg.Rank {
		return nil
	}
	if rank < 0 || rank >= c.cfg.capacity() {
		return fmt.Errorf("tcp: AdmitPeer: rank %d out of capacity [0,%d)", rank, c.cfg.capacity())
	}
	if addr == "" {
		return fmt.Errorf("tcp: AdmitPeer: empty address for rank %d", rank)
	}
	c.addrMu.Lock()
	c.addrs[rank] = addr
	c.addrMu.Unlock()
	return nil
}

var (
	_ transport.PeerAdmitter = (*Conn)(nil)
	_ transport.JoinNotifier = (*Conn)(nil)
)

// joinAcceptLoop answers mid-run rendezvous hellos on rank 0 of an elastic
// world: a joiner announces itself with Src == -1, receives the next free
// slot and the current peer table, and is surfaced through OnJoinRequest.
// The joiner is NOT yet a member — the upper layers decide when (and
// whether) to admit it into the collective group.
func (c *Conn) joinAcceptLoop() {
	defer c.readerWG.Done()
	ln := c.rendezvousLn
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Close/Kill
		}
		c.track(conn)
		c.readerWG.Add(1)
		go func(conn net.Conn) {
			defer c.readerWG.Done()
			defer func() {
				c.untrack(conn)
				conn.Close()
			}()
			conn.SetDeadline(time.Now().Add(c.cfg.BootstrapTimeout))
			f, _, err := transport.ReadFrame(conn)
			if err != nil || f.Kind != transport.KindHello || f.Src != -1 {
				return // not a joiner hello; drop
			}
			addr := string(f.Payload)
			if addr == "" {
				return
			}
			c.addrMu.Lock()
			if c.nextJoin >= c.cfg.capacity() {
				c.addrMu.Unlock()
				return // world full; the joiner times out and gives up
			}
			r := c.nextJoin
			c.nextJoin++
			c.addrs[r] = addr
			table := transport.EncodeAddrTable(c.addrs)
			c.addrMu.Unlock()
			reply, err := transport.MarshalFrame(transport.WireFrame{
				Kind:    transport.KindTable,
				Src:     int32(c.cfg.Rank),
				Dst:     int32(r), // the assigned slot rides the Dst field
				Payload: table,
			})
			if err == nil {
				_, err = conn.Write(reply)
			}
			if err != nil {
				// The joiner never learned its slot; roll the assignment back
				// when it is still the newest so a retry doesn't leak slots
				// (and never surface a ghost join).
				c.addrMu.Lock()
				if c.nextJoin == r+1 {
					c.nextJoin = r
					c.addrs[r] = ""
				}
				c.addrMu.Unlock()
				return
			}
			c.notifyJoin(transport.JoinRequest{Rank: r, Addr: addr})
		}(conn)
	}
}
