// Package tcp is the wire transport backend: every rank is an OS process
// and frames move over persistent localhost/LAN TCP connections as
// length-prefixed binary records (transport.WireFrame).
//
// # Bootstrap (rendezvous)
//
// Rank 0 listens on the rendezvous address. Every rank also opens its own
// data listener on an ephemeral port. Ranks 1..M-1 dial the rendezvous
// (with retry and backoff — process start order is arbitrary) and send a
// hello frame carrying their data address; rank 0 collects all M-1 hellos,
// then answers each with the complete rank↔address table. After the
// rendezvous closes, the world is fully addressable and data sockets form
// lazily, one per direction: the first Send to a peer dials its data
// listener and identifies itself with a hello frame. A rank writes only on
// sockets it dialed and reads frames only from sockets it accepted.
//
// # Ordering, retries, failure
//
// When the peer is idle — its socket up, nothing queued, nothing being
// written — Send writes the frame itself, in one writev, a []byte or
// []float32 body straight from the caller's memory. Otherwise it queues the
// frame for the peer's writer goroutine, which drains an unbounded FIFO queue
// and owns dialing, redials and backlogs. One frame or batch is written at a
// time, so per-(pair) frame order is the sender's program order — the
// non-overtaking guarantee the mailbox layer requires — and Send blocks at
// most for one frame's write into a socket the peer's reader is draining,
// which cannot deadlock. A reconnect keeps the order: each hello carries the
// socket's dial number, and the receiver reads a source's sockets one at a
// time in that order, each to its end. Dials and writes have deadlines; a
// failed write drops the socket and leaves the frame at the head of the
// queue, and a failed connection is redialed with exponential backoff until
// RetryTimeout runs out, after which the transport records a wrapped error,
// fails the queued frame, and surfaces the error on subsequent Send and Close
// calls. Close waits out a write in flight, drains the outbound queues,
// half-closes every connection and reads it to the peer's FIN (all bounded by
// DrainTimeout) before tearing it down: no socket is closed with unread bytes
// in it. Kill releases a write in flight at once. A rank never sends to
// itself.
package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/wirecomp"
)

// Config describes one rank's endpoint of a TCP world.
type Config struct {
	// Rank and Size identify this process within the world.
	Rank int
	Size int
	// Rendezvous is the host:port rank 0 listens on for bootstrap and the
	// other ranks dial. Required unless Size == 1.
	Rendezvous string
	// RendezvousListener, when non-nil, is a pre-bound listener rank 0 uses
	// instead of binding Rendezvous itself (lets callers reserve a port
	// without a race). Ignored on other ranks.
	RendezvousListener net.Listener
	// ListenAddr is the bind address for this rank's data listener.
	// Default "127.0.0.1:0" (ephemeral port).
	ListenAddr string
	// AdvertiseAddr overrides the address sent to peers (for NATed or
	// multi-homed hosts). Default: the data listener's own address.
	AdvertiseAddr string

	// BootstrapTimeout bounds the whole rendezvous phase, dials included.
	// Default 30s.
	BootstrapTimeout time.Duration
	// RetryTimeout bounds how long one outbound batch may spend dialing and
	// redialing its peer: when it runs out, the peer is dead. Attempts back
	// off from 25ms, doubling to at most 1s, and no dial outlives the
	// budget. Default 2.5s.
	RetryTimeout time.Duration
	// DrainTimeout bounds how long Close waits for queued outbound frames
	// to flush and for every peer to answer the half-close. Default 10s.
	DrainTimeout time.Duration

	// HeartbeatInterval, when positive, enables liveness detection: a
	// background prober enqueues a KindPing frame to every peer each
	// interval. Because pings ride the normal write path — dial, retry
	// budget, deadlines — a dead or partitioned peer is detected even by
	// ranks that never send it data, surfacing as a *transport.PeerError
	// through OnPeerFailure instead of an eternal block. A peer that holds
	// a socket open and says nothing for four intervals is dead too (a
	// frozen process). Zero (the default)
	// disables heartbeats; byte accounting then stays exactly the data
	// traffic, which the wire-exactness tests rely on.
	HeartbeatInterval time.Duration

	// Compress makes this rank wirecomp-compress the large data-frame
	// payloads it sends (coalesced sample batches). Compressed frames travel
	// as KindDataZ, which every rank decodes whatever its own setting, so
	// ranks with it on and off interoperate. Byte counters always report the
	// real (compressed) socket bytes. Default off.
	Compress bool

	// Dial overrides the dial function (tests inject flaky networks). The
	// timeout is what is left of the retry budget, at most 2s. Default
	// net.DialTimeout("tcp", addr, timeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	// MaxSize, when greater than Size, makes the world elastic: rank slots
	// [Size, MaxSize) are reserved for mid-run joiners. Rank 0 keeps the
	// rendezvous listener open after bootstrap and answers later hellos
	// (Src == -1) by assigning the next free slot and returning the peer
	// table; the join is surfaced through OnJoinRequest, and the running
	// members attach the new peer with AdmitPeer once the upper-layer join
	// protocol tells them to. Must be identical on every rank. Zero (the
	// default) means a fixed world (MaxSize == Size).
	MaxSize int
	// Join makes New join an already-running elastic world instead of
	// bootstrapping one: Rank and Size are ignored, the endpoint dials
	// Rendezvous, announces itself with a joiner hello, and adopts the rank
	// slot and peer table the root assigns. MaxSize must match the running
	// world's. After New returns, Rank() reports the assigned slot and
	// Size() reports MaxSize (the rank name space); the actual live
	// membership arrives through the upper-layer admission protocol.
	Join bool
}

// capacity is the size of the rank name space: every per-rank table is
// sized by it, and latent slots above Size are admitted lazily.
func (c *Config) capacity() int {
	if c.MaxSize > c.Size {
		return c.MaxSize
	}
	return c.Size
}

// minCompressPayload is the smallest encoded payload worth compressing:
// below it the codec's tag overhead and the extra copy outweigh any win
// (control frames, single-sample batches, ref frames).
const minCompressPayload = 512

// writeTimeout bounds one frame write (and the hello of a fresh dial).
const writeTimeout = 30 * time.Second

// silentBeats is how many heartbeat intervals a peer holding a socket open
// may stay silent before it is declared dead.
const silentBeats = 4

// The backoff of every dial retry, a writer's toward its peer and a rank's
// toward the rendezvous.
const (
	backoffMin     = 25 * time.Millisecond
	backoffMax     = time.Second
	maxDialTimeout = 2 * time.Second
)

// retry is one run of the dial retry loop. Its deadline — RetryTimeout for a
// peer, BootstrapTimeout for the rendezvous — is its only bound: no attempt
// starts whose backoff would end past it, and no dial outlives it.
type retry struct {
	deadline time.Time
	wait     time.Duration // the backoff before the next attempt
	attempts int           // attempts started
}

func retryUntil(deadline time.Time) retry {
	return retry{deadline: deadline, wait: backoffMin}
}

// next reports whether another attempt may start, first sleeping out the
// backoff unless it is the first.
func (r *retry) next() bool {
	if r.attempts > 0 {
		if time.Now().Add(r.wait).After(r.deadline) {
			return false
		}
		time.Sleep(r.wait)
		r.wait = min(2*r.wait, backoffMax)
	}
	r.attempts++
	return true
}

// dialTimeout bounds the current attempt's dial: what is left of the budget,
// at most maxDialTimeout.
func (r *retry) dialTimeout() time.Duration {
	return min(time.Until(r.deadline), maxDialTimeout)
}

func (c *Config) fillDefaults() {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.BootstrapTimeout <= 0 {
		c.BootstrapTimeout = 30 * time.Second
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 2500 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
}

func (c *Config) validate() error {
	if c.Join {
		if c.Rendezvous == "" {
			return fmt.Errorf("tcp: join mode requires a rendezvous address")
		}
		if c.MaxSize <= 1 {
			return fmt.Errorf("tcp: join mode requires MaxSize > 1 (the running world's capacity)")
		}
		return nil
	}
	if c.Size <= 0 {
		return fmt.Errorf("tcp: world size %d must be positive", c.Size)
	}
	if c.Rank < 0 || c.Rank >= c.Size {
		return fmt.Errorf("tcp: rank %d out of range [0,%d)", c.Rank, c.Size)
	}
	if c.MaxSize != 0 && c.MaxSize < c.Size {
		return fmt.Errorf("tcp: MaxSize %d smaller than world size %d", c.MaxSize, c.Size)
	}
	if c.capacity() > 1 && c.Rendezvous == "" && (c.Rank != 0 || c.RendezvousListener == nil) {
		return fmt.Errorf("tcp: rendezvous address required for a world of capacity %d", c.capacity())
	}
	return nil
}

// Conn is one rank's TCP transport endpoint. Create it with New.
type Conn struct {
	cfg     Config
	handler transport.Handler

	listener net.Listener
	// addrMu guards addrs, which elastic worlds mutate at runtime (the
	// root's join accept loop and AdmitPeer); peers itself is immutable
	// after New — latent slots get a peer struct up front.
	addrMu sync.RWMutex
	addrs  []string // rank → data address ("" = latent, not yet admitted)
	peers  []*peer  // peers[ownRank] == nil

	// Elastic state: the retained rendezvous listener (rank 0 of a world
	// with MaxSize > Size), the next joiner slot, the join callback, and
	// joins queued before the callback was registered.
	rendezvousLn net.Listener
	nextJoin     int
	onJoin       func(transport.JoinRequest)
	pendingJoins []transport.JoinRequest

	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64

	// Compression accounting (Stats.CompressRaw/CompressWire): payload bytes
	// entering the compressor vs leaving it, counted only for frames that
	// actually shipped compressed.
	compRaw  atomic.Int64
	compWire atomic.Int64

	// Per-kind frame and byte counters (Stats' *ByKind arrays) and per-peer
	// last-heard stamps in unix nanos (transport.LivenessStatser). All
	// plain atomics so telemetry scrapes race-free against traffic.
	sentKind      [transport.NumKinds]atomic.Int64
	recvKind      [transport.NumKinds]atomic.Int64
	sentKindBytes [transport.NumKinds]atomic.Int64
	recvKindBytes [transport.NumKinds]atomic.Int64
	lastHeard     []atomic.Int64 // rank → unix nanos, 0 = never

	closed    chan struct{}
	closeOnce sync.Once
	killed    atomic.Bool
	readerWG  sync.WaitGroup
	writerWG  sync.WaitGroup
	beatWG    sync.WaitGroup

	connsMu sync.Mutex
	conns   map[net.Conn]struct{} // every live socket, for shutdown

	errMu  sync.Mutex
	err    error
	onFail func(transport.PeerError) // registered via OnPeerFailure
}

// track remembers a live socket, dialed or accepted, so ResetPeers, Close and
// Kill reach it.
func (c *Conn) track(conn net.Conn) {
	c.connsMu.Lock()
	if c.conns == nil {
		c.conns = make(map[net.Conn]struct{})
	}
	c.conns[conn] = struct{}{}
	c.connsMu.Unlock()
}

func (c *Conn) untrack(conn net.Conn) {
	c.connsMu.Lock()
	delete(c.conns, conn)
	c.connsMu.Unlock()
}

// New establishes this rank's endpoint: it binds the data listener, runs
// the rendezvous bootstrap, and starts the accept loop. Inbound data frames
// are decoded and passed to h (possibly from multiple reader goroutines).
func New(cfg Config, h transport.Handler) (*Conn, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if h == nil {
		return nil, fmt.Errorf("tcp: nil frame handler")
	}
	capacity := cfg.capacity()
	c := &Conn{cfg: cfg, handler: h, closed: make(chan struct{})}
	c.lastHeard = make([]atomic.Int64, capacity)
	c.nextJoin = cfg.Size

	if capacity == 1 {
		// Single-rank fixed world: no peers, no sockets.
		c.addrs = []string{""}
		c.peers = []*peer{nil}
		return c, nil
	}

	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: rank %d: binding data listener: %w", cfg.Rank, err)
	}
	c.listener = ln
	advertise := cfg.AdvertiseAddr
	if advertise == "" {
		advertise = ln.Addr().String()
	}

	if err := c.bootstrap(advertise); err != nil {
		ln.Close()
		return nil, err
	}

	// Every slot of the rank name space gets its peer struct and writer up
	// front, latent joiner slots included: an idle writer goroutine parked
	// on its condition variable is cheap, and it means admission never has
	// to mutate the peers table under traffic.
	c.peers = make([]*peer, capacity)
	for r := 0; r < capacity; r++ {
		if r == c.cfg.Rank {
			continue
		}
		p := &peer{rank: r}
		p.cond = sync.NewCond(&p.mu)
		p.in.cond.L = &p.in.mu
		c.peers[r] = p
		c.writerWG.Add(1)
		go c.writeLoop(p)
	}

	c.readerWG.Add(1)
	go c.acceptLoop()
	if c.rendezvousLn != nil {
		c.readerWG.Add(1)
		go c.joinAcceptLoop()
	}
	if cfg.HeartbeatInterval > 0 {
		c.beatWG.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// Rank returns this endpoint's rank.
func (c *Conn) Rank() int { return c.cfg.Rank }

// Size returns the world size.
func (c *Conn) Size() int { return c.cfg.Size }

// Err returns the first transport failure observed, if any.
func (c *Conn) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

func (c *Conn) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// Stats returns real wire byte counts (frame headers included), their
// per-kind decomposition and the compressor's totals. Safe to call
// concurrently with traffic (telemetry scrapes it from the HTTP goroutine).
func (c *Conn) Stats() transport.Stats {
	st := transport.Stats{
		FramesSent:   c.framesSent.Load(),
		FramesRecv:   c.framesRecv.Load(),
		BytesSent:    c.bytesSent.Load(),
		BytesRecv:    c.bytesRecv.Load(),
		Wire:         true,
		CompressRaw:  c.compRaw.Load(),
		CompressWire: c.compWire.Load(),
	}
	for k := 0; k < transport.NumKinds; k++ {
		st.SentByKind[k] = c.sentKind[k].Load()
		st.RecvByKind[k] = c.recvKind[k].Load()
		st.SentBytesByKind[k] = c.sentKindBytes[k].Load()
		st.RecvBytesByKind[k] = c.recvKindBytes[k].Load()
	}
	return st
}

// frameWireOffset is where the payload section starts inside a marshalled
// frame: the u32 length prefix plus the 17-byte header.
const frameWireOffset = 4 + 17

// bytesPayloadCode and float32PayloadCode are what the payload codec puts in
// front of a []byte and a []float32 value (the one-byte type code): the
// encodings of the empty slices.
var (
	bytesPayloadCode, _   = transport.EncodePayload([]byte{})
	float32PayloadCode, _ = transport.EncodePayload([]float32{})
)

// Send serializes the payload toward dst, returning the exact number of bytes
// the frame occupies on the wire — the post-compression serialized size,
// length prefix and header included. When the peer is idle Send writes the
// frame itself, so it returns once the kernel has taken the bytes; otherwise
// it queues the frame for the peer's writer goroutine. Either way the
// caller's buffer is free again when Send returns. A send to this rank itself
// is refused (transport.ErrSelfSend).
func (c *Conn) Send(dst, tag int, payload any) (int64, error) {
	if dst < 0 || dst >= c.cfg.capacity() {
		return 0, fmt.Errorf("tcp: Send: rank %d out of range [0,%d)", dst, c.cfg.capacity())
	}
	if dst == c.cfg.Rank {
		return 0, fmt.Errorf("tcp: Send to rank %d: %w", dst, transport.ErrSelfSend)
	}
	if err := c.Err(); err != nil {
		// A peer-scoped failure poisons only sends toward that peer (checked
		// below); whole-transport failures poison everything.
		if _, isPeer := transport.AsPeerError(err); !isPeer {
			return 0, fmt.Errorf("tcp: Send to rank %d: transport already failed: %w", dst, err)
		}
	}
	select {
	case <-c.closed:
		return 0, fmt.Errorf("tcp: Send to rank %d: transport closed", dst)
	default:
	}
	p := c.peers[dst]
	// A []byte or []float32 body goes to the socket from the caller's memory
	// when the peer is idle as Send reaches it; anything else, and such a body
	// bound for the queue after all, is encoded into a pooled buffer first.
	code, body, byRef := c.refBody(payload)
	kind, wire := transport.KindData, int64(len(p.hdr)+len(body))
	var wb *transport.WireBuf
	if !byRef {
		var err error
		if wb, err = c.encodeFrame(dst, tag, payload); err != nil {
			return 0, fmt.Errorf("tcp: Send to rank %d: %w", dst, err)
		}
		kind, wire = wb.B[4], int64(len(wb.B)) // byte 4 of a marshalled frame is its wire kind
	}
	for {
		p.mu.Lock()
		if p.dead {
			pe := p.err
			p.mu.Unlock()
			transport.PutWireBuf(wb)
			if pe != nil {
				return 0, fmt.Errorf("tcp: Send to rank %d: %w", dst, pe)
			}
			return 0, &transport.PeerError{Rank: dst, Phase: transport.PhaseSend}
		}
		if p.closing {
			p.mu.Unlock()
			transport.PutWireBuf(wb)
			return 0, fmt.Errorf("tcp: Send to rank %d: transport closing", dst)
		}
		if p.conn != nil && len(p.queue) == 0 && !p.writing {
			p.writing = true
			conn := p.conn
			p.mu.Unlock()
			c.countSent(kind, wire)
			c.writeInline(p, conn, wb, tag, code, body, payload)
			return wire, nil
		}
		if wb != nil {
			p.queue = append(p.queue, wb)
			if !p.writing { // a writer finishing a write looks at the queue again
				p.cond.Signal()
			}
			p.mu.Unlock()
			c.countSent(kind, wire)
			return wire, nil
		}
		p.mu.Unlock()
		// refBody admitted the payload, so encoding it cannot fail.
		wb, _ = c.encodeFrame(dst, tag, payload)
	}
}

// refBody returns the payload type code and the body of a payload that can be
// written from the caller's memory: a []byte this rank does not compress, or
// a []float32 on a little-endian host, whose memory is its encoding. ok is
// false for every other payload.
func (c *Conn) refBody(payload any) (code byte, body []byte, ok bool) {
	switch v := payload.(type) {
	case []byte:
		if len(v) >= transport.MaxFramePayload || c.compresses(v) {
			return 0, nil, false
		}
		return bytesPayloadCode[0], v, true
	case []float32:
		if 4*len(v) >= transport.MaxFramePayload || !data.HostLittleEndian {
			return 0, nil, false
		}
		return float32PayloadCode[0], data.BytesOf(v), true
	}
	return 0, nil, false
}

// compresses reports whether this rank tries to compress a sample-batch
// payload ([]byte): it compresses, and the payload section is large enough to
// beat the codec overhead.
func (c *Conn) compresses(pb []byte) bool {
	return c.cfg.Compress && len(pb) >= minCompressPayload && len(pb) < transport.MaxFramePayload
}

// encodeFrame serializes a data frame into a pooled buffer — payload encoding
// and frame header in one pass, no intermediate payload slice.
//
// Compression happens here, synchronously, rather than in the writer
// goroutine: the frame's final wire size must be known when Send returns, and
// the scheduler's accounting relies on that exactness. The block is built
// from the caller's bytes directly into the frame (the payload's type code
// rides in front as a literal), so the plain frame is only ever materialised
// for a payload that does not shrink.
func (c *Conn) encodeFrame(dst, tag int, payload any) (*transport.WireBuf, error) {
	wb := transport.GetWireBuf()
	if pb, ok := payload.([]byte); ok && c.compresses(pb) {
		// A header-only frame cannot exceed the payload limit, AppendFrame's
		// one error.
		z, _ := transport.AppendFrame(wb.B[:0], transport.WireFrame{
			Kind: transport.KindDataZ, Src: int32(c.cfg.Rank), Dst: int32(dst), Tag: int64(tag)})
		z = wirecomp.EncodeTagged(z, bytesPayloadCode, pb)
		wb.B = z
		if raw := len(bytesPayloadCode) + len(pb); len(z)-frameWireOffset < raw {
			binary.LittleEndian.PutUint32(z, uint32(len(z)-4))
			c.compRaw.Add(int64(raw))
			c.compWire.Add(int64(len(z) - frameWireOffset))
			return wb, nil
		}
	}
	buf, err := transport.AppendDataFrame(wb.B[:0], int32(c.cfg.Rank), int32(dst), int64(tag), payload)
	wb.B = buf
	if err != nil {
		transport.PutWireBuf(wb)
		return nil, err
	}
	return wb, nil
}

// countSent records a frame the moment its peer's queue accepts it — the
// same moment Send reports its size — rather than when the writer
// goroutine gets round to the socket. Sender-side identities (metered bytes
// = counted bytes) therefore hold at every instant, not only once every
// writer has been scheduled; the price is that a frame queued for a peer
// that then dies stays counted.
func (c *Conn) countSent(kind uint8, wire int64) {
	c.framesSent.Add(1)
	c.bytesSent.Add(wire)
	c.sentKind[kind].Add(1)
	c.sentKindBytes[kind].Add(wire)
}

// Close waits out a write Send has in flight, drains the outbound queues,
// half-closes every connection and reads each to the peer's FIN (all of it
// bounded by DrainTimeout), then tears the connections down and returns the
// first transport failure observed during the connection's lifetime, if any.
//
// The half-close is Close's linearisation point: on a socket this rank
// dialed, a FIN travels behind the last queued byte, and the peer's reader
// answers it with its own close only once it has consumed everything before
// it. When the peer's FIN comes back, every frame Send accepted has been
// read by the peer. On a socket the peer dialed, the FIN tells the peer to
// stop writing there, and this rank reads what it did write to the end —
// whereas closing a socket outright while inbound bytes (a late heartbeat,
// say) sit unread makes the kernel send a reset and discard whatever of
// ours it had not yet transmitted.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		deadline := time.Now().Add(c.cfg.DrainTimeout)
		// Ask writers to finish their queues, then stop.
		for _, p := range c.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.closing = true
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		if !waitUntil(&c.writerWG, deadline) {
			c.fail(fmt.Errorf("tcp: rank %d: close: outbound queues not drained within %v", c.cfg.Rank, c.cfg.DrainTimeout))
		}
		close(c.closed)
		c.beatWG.Wait()
		if c.listener != nil {
			c.listener.Close()
		}
		if c.rendezvousLn != nil {
			c.rendezvousLn.Close()
		}
		for _, p := range c.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.conn = nil
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		// Readers exit once they have read their connection to its end. A
		// peer that does not answer the FIN in time is cut off below, which
		// is what a full close would have done at once.
		c.connsMu.Lock()
		for conn := range c.conns {
			if cw, ok := conn.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
			} else {
				conn.Close() // injected test dials may not be TCP
			}
		}
		c.connsMu.Unlock()
		waitUntil(&c.readerWG, deadline)
		for _, p := range c.peers {
			if p != nil {
				p.in.release()
			}
		}
		c.connsMu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		c.conns = nil
		c.connsMu.Unlock()
		c.readerWG.Wait()
	})
	return c.Err()
}

// waitUntil waits for wg until the deadline and reports whether it got there.
func waitUntil(wg *sync.WaitGroup, deadline time.Time) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

var _ transport.Conn = (*Conn)(nil)
