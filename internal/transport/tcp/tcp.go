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
// rendezvous closes, the world is fully addressable and peer connections
// form lazily: the first Send to a peer dials its data listener and
// identifies itself with a hello frame, and the peer adopts that connection
// for its own writes, so one socket normally carries both directions. When
// both ends dial at once the pair keeps both sockets: each end writes on
// one and reads both.
//
// # Ordering, retries, failure
//
// Each peer has one writer goroutine draining an unbounded FIFO queue, so
// Send is eager (never blocks on the receiver) and per-(pair) frame order
// is the sender's program order — the non-overtaking guarantee the mailbox
// layer requires. Dials and writes have deadlines; a failed connection is
// redialed with exponential backoff up to a bounded attempt budget, after
// which the transport records a wrapped error, fails the queued frame, and
// surfaces the error on subsequent Send and Close calls. Close drains the
// outbound queues, half-closes every connection and reads it to the peer's
// FIN (all bounded by DrainTimeout) before tearing it down: no socket is
// closed with unread bytes in it.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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

	// DialTimeout bounds one dial attempt. Default 2s.
	DialTimeout time.Duration
	// DialAttempts bounds dial/redial retries per frame before the
	// transport gives up. Default 8.
	DialAttempts int
	// DialBackoff is the initial retry backoff, doubled per attempt and
	// capped at 1s. Default 25ms.
	DialBackoff time.Duration
	// BootstrapTimeout bounds the whole rendezvous phase. Default 30s.
	BootstrapTimeout time.Duration
	// RetryTimeout is the TOTAL deadline for one outbound batch's
	// dial/redial retry loop, layered on top of the per-attempt budget
	// (DialAttempts × backoff): whichever bound is hit first marks the
	// peer dead. Default 20s.
	RetryTimeout time.Duration
	// DrainTimeout bounds how long Close waits for queued outbound frames
	// to flush and for every peer to answer the half-close. Default 10s.
	DrainTimeout time.Duration

	// HeartbeatInterval, when positive, enables liveness detection: a
	// background prober enqueues a KindPing frame to every peer each
	// interval. Because pings ride the normal write path — dial, retry
	// budget, deadlines — a dead or partitioned peer is detected even by
	// ranks that never send it data, surfacing as a *transport.PeerError
	// through OnPeerFailure instead of an eternal block. Zero (the
	// default) disables heartbeats; byte accounting then stays exactly the
	// data traffic, which the wire-exactness tests rely on.
	HeartbeatInterval time.Duration
	// PeerTimeout bounds how long a silent established connection is
	// trusted when heartbeats are enabled (it becomes the read deadline on
	// data connections). Default 4 × HeartbeatInterval.
	PeerTimeout time.Duration

	// Compress enables wirecomp block compression of large data-frame
	// payloads (coalesced sample batches). It is negotiated per connection
	// at bootstrap: this rank advertises the capability in its hello, the
	// rendezvous table redistributes every rank's flags, and a frame is
	// compressed toward a peer only when BOTH ends enabled it — a mixed
	// world degrades to plain frames pairwise. Compressed frames travel as
	// KindDataZ; byte counters always report the real (compressed) socket
	// bytes. Default off.
	Compress bool

	// Dial overrides the dial function (tests inject flaky networks).
	// Default net.DialTimeout("tcp", addr, timeout).
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

// capabilityFlags renders the config's negotiable capabilities as the wire
// flag byte carried by v2 hellos and tables.
func (c *Config) capabilityFlags() byte {
	var f byte
	if c.Compress {
		f |= transport.FlagCompress
	}
	return f
}

// minCompressPayload is the smallest encoded payload worth compressing:
// below it the codec's tag overhead and the extra copy outweigh any win
// (control frames, single-sample batches, ref frames).
const minCompressPayload = 512

// writeTimeout bounds one frame write (and the hello of a fresh dial).
const writeTimeout = 30 * time.Second

func (c *Config) fillDefaults() {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = 8
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 25 * time.Millisecond
	}
	if c.BootstrapTimeout <= 0 {
		c.BootstrapTimeout = 30 * time.Second
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 20 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.HeartbeatInterval > 0 {
		if c.PeerTimeout <= 0 {
			c.PeerTimeout = 4 * c.HeartbeatInterval
		}
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
	if c.Size > 1 && c.Rendezvous == "" && (c.Rank != 0 || c.RendezvousListener == nil) {
		return fmt.Errorf("tcp: rendezvous address required for world size %d", c.Size)
	}
	if c.capacity() > 1 && c.Rendezvous == "" && (c.Rank != 0 || c.RendezvousListener == nil) {
		return fmt.Errorf("tcp: rendezvous address required for elastic capacity %d", c.capacity())
	}
	return nil
}

// Conn is one rank's TCP transport endpoint. Create it with New.
type Conn struct {
	cfg     Config
	handler transport.Handler

	listener net.Listener
	// addrMu guards addrs and peerFlags, which elastic worlds mutate at
	// runtime (the root's join accept loop and AdmitPeer); peers itself is
	// immutable after New — latent slots get a peer struct up front.
	addrMu    sync.RWMutex
	addrs     []string // rank → data address ("" = latent, not yet admitted)
	peerFlags []byte   // rank → negotiated capability flags (v2 table)
	peers     []*peer  // peers[ownRank] == nil

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

// track remembers a live socket so Close can tear it down even if it never
// became a peer's canonical write connection.
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

// peer is the outbound side toward one remote rank: an unbounded FIFO frame
// queue drained by a single writer goroutine, plus the current live
// connection (shared with the inbound reader).
type peer struct {
	rank int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*transport.WireBuf // marshalled frames, length prefix included
	spare   []*transport.WireBuf // recycled backing array for queue
	conn    net.Conn             // current write connection; nil → (re)dial on demand
	closing bool
	dead    bool                 // retry budget exhausted; queue is discarded
	err     *transport.PeerError // why the peer is dead (set with dead)

	iov net.Buffers // writer-goroutine scratch for vectored writes
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
		// Single-rank fixed world: only self-delivery, no sockets.
		c.addrs = []string{""}
		c.peerFlags = []byte{cfg.capabilityFlags()}
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

// compressTo reports whether data frames toward dst may travel compressed:
// both this rank and dst advertised FlagCompress (at bootstrap or at
// admission for joiners).
func (c *Conn) compressTo(dst int) bool {
	if !c.cfg.Compress || dst >= len(c.peerFlags) {
		return false
	}
	c.addrMu.RLock()
	f := c.peerFlags[dst]
	c.addrMu.RUnlock()
	return f&transport.FlagCompress != 0
}

// frameWireOffset is where the payload section starts inside a marshalled
// frame: the u32 length prefix plus the 17-byte header.
const frameWireOffset = 4 + 17

// bytesPayloadCode is what the payload codec puts in front of a []byte
// value (its one-byte type code): the encoding of the empty slice.
var bytesPayloadCode, _ = transport.EncodePayload([]byte{})

// Send serializes the payload and enqueues it toward dst, returning the exact
// number of bytes the frame occupies on the wire — the post-compression
// serialized size, length prefix and header included. Self-sends loop back
// through the codec (an encode/decode round trip) so semantics match remote
// delivery exactly, and report 0.
func (c *Conn) Send(dst, tag int, payload any) (int64, error) {
	if dst < 0 || dst >= c.cfg.capacity() {
		return 0, fmt.Errorf("tcp: Send: rank %d out of range [0,%d)", dst, c.cfg.capacity())
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
	if dst == c.cfg.Rank {
		// Self-send: loop back through the codec (an encode/decode round
		// trip, so semantics match remote delivery exactly) using a pooled
		// buffer for the transient encoding. Never touches a wire, so the
		// metered size is 0.
		wb := transport.GetWireBuf()
		enc, err := transport.AppendPayload(wb.B[:0], payload)
		wb.B = enc
		if err != nil {
			transport.PutWireBuf(wb)
			return 0, fmt.Errorf("tcp: Send to rank %d: %w", dst, err)
		}
		v, derr := transport.DecodePayload(enc)
		transport.PutWireBuf(wb)
		if derr != nil {
			return 0, fmt.Errorf("tcp: self-send round trip: %w", derr)
		}
		kind := transport.DataKindFor(payload)
		c.framesSent.Add(1)
		c.framesRecv.Add(1)
		c.sentKind[kind].Add(1)
		c.recvKind[kind].Add(1)
		c.handler(transport.Frame{Src: dst, Dst: dst, Tag: tag, Payload: v})
		return 0, nil
	}
	// Serialize straight into a pooled buffer — payload encoding and frame
	// header in one pass, no intermediate payload slice. The buffer travels
	// through the peer's writer queue and returns to the pool once written.
	wb := transport.GetWireBuf()
	// Compression happens here, synchronously, rather than in the writer
	// goroutine: the frame's final wire size must be known when Send
	// returns, and the scheduler's accounting relies on that exactness.
	// Eligibility: negotiated with dst, sample-batch payload ([]byte), and
	// a payload section large enough to beat the codec overhead. The block
	// is built from the caller's bytes directly into the frame that is
	// queued (the payload's type code rides in front as a literal), so the
	// plain frame is only ever materialised for a payload that does not
	// shrink.
	compressed := false
	if pb, ok := payload.([]byte); ok && len(pb) >= minCompressPayload && len(pb) < transport.MaxFramePayload && c.compressTo(dst) {
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
			compressed = true
		}
	}
	if !compressed {
		buf, err := transport.AppendDataFrame(wb.B[:0], int32(c.cfg.Rank), int32(dst), int64(tag), payload)
		wb.B = buf
		if err != nil {
			transport.PutWireBuf(wb)
			return 0, fmt.Errorf("tcp: Send to rank %d: %w", dst, err)
		}
	}
	kind, wire := wb.B[4], int64(len(wb.B)) // byte 4 of a marshalled frame is its wire kind
	p := c.peers[dst]
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
	p.queue = append(p.queue, wb)
	p.cond.Signal()
	p.mu.Unlock()
	c.countSent(kind, wire)
	return wire, nil
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

// Close drains the outbound queues, half-closes every connection and reads
// each to the peer's FIN (all of it bounded by DrainTimeout), then tears the
// connections down and returns the first transport failure observed during
// the connection's lifetime, if any.
//
// The half-close is Close's linearisation point: a FIN travels behind the
// last queued byte, and the peer's reader answers it with its own close only
// once it has consumed everything before it. When the peer's FIN comes back,
// every frame Send accepted has been read by the peer — whereas closing a
// socket outright while inbound bytes (a late heartbeat, say) sit unread
// makes the kernel send a reset and discard whatever of ours it had not yet
// transmitted.
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

// --- data plane ---

// acceptLoop registers inbound peer connections (identified by their hello
// frame) and spawns a reader per connection.
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
			conn.SetReadDeadline(time.Now().Add(c.cfg.BootstrapTimeout))
			f, _, err := transport.ReadFrame(conn)
			if err != nil || f.Kind != transport.KindHello {
				c.untrack(conn)
				conn.Close()
				return
			}
			r := int(f.Src)
			if r < 0 || r >= c.cfg.capacity() || r == c.cfg.Rank {
				c.untrack(conn)
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			c.recvKind[transport.KindHello].Add(1)
			c.lastHeard[r].Store(time.Now().UnixNano())
			c.registerConn(r, conn)
			c.readLoop(r, conn)
		}(conn)
	}
}

// registerConn installs conn as the peer's write connection if it has none.
func (c *Conn) registerConn(rank int, conn net.Conn) {
	p := c.peers[rank]
	p.mu.Lock()
	if p.conn == nil && !p.closing {
		p.conn = conn
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// dropConn detaches conn from the peer if it is the current write
// connection, forcing the writer to redial.
func (c *Conn) dropConn(rank int, conn net.Conn) {
	p := c.peers[rank]
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.mu.Unlock()
	c.untrack(conn)
	conn.Close()
}

// readLoop decodes inbound frames from one connection until it errors. One
// persistent frame buffer is reused across reads (ReadFrameInto); the frame
// payload aliasing it is consumed by DecodePayload before the next read, so
// the steady-state receive path allocates only the decoded value — and not
// even that for a []float32 payload, which ReadFrameInto reads from the
// socket into a pooled slice that is delivered as it is.
func (c *Conn) readLoop(rank int, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var scratch []byte
	for {
		// Without heartbeats reads block indefinitely — epochs between
		// exchanges can be arbitrarily long; with them a healthy peer
		// guarantees traffic at least every HeartbeatInterval.
		if c.cfg.HeartbeatInterval > 0 {
			conn.SetReadDeadline(time.Now().Add(c.cfg.PeerTimeout))
		}
		f, floats, n, err := transport.ReadFrameInto(br, &scratch)
		if err != nil {
			c.dropConn(rank, conn)
			return
		}
		c.bytesRecv.Add(int64(n))
		c.recvKind[f.Kind].Add(1)
		c.recvKindBytes[f.Kind].Add(int64(n))
		c.lastHeard[rank].Store(time.Now().UnixNano())
		switch f.Kind {
		case transport.KindData, transport.KindDataRef, transport.KindDataZ:
			if int(f.Dst) != c.cfg.Rank {
				transport.PutFloat32s(floats)
				continue // misrouted; drop
			}
			var v any
			var derr error
			if floats != nil {
				v = floats
			} else if f.Kind == transport.KindDataZ {
				// Decompress into a fresh buffer of exactly the declared size
				// and hand that buffer on: a sample batch is delivered as a
				// slice of it, not copied out of a scratch.
				dl, zerr := wirecomp.DecodedLen(f.Payload)
				if zerr == nil && dl > transport.MaxFramePayload {
					zerr = fmt.Errorf("decompressed payload %d exceeds frame limit", dl)
				}
				var raw []byte
				if zerr == nil {
					raw, zerr = wirecomp.Decode(nil, f.Payload)
				}
				if zerr != nil {
					c.fail(fmt.Errorf("tcp: rank %d: compressed payload from rank %d: %w", c.cfg.Rank, f.Src, zerr))
					continue
				}
				v, derr = transport.DecodePayloadOwned(raw)
			} else {
				v, derr = transport.DecodePayload(f.Payload)
			}
			if derr != nil {
				c.fail(fmt.Errorf("tcp: rank %d: payload from rank %d: %w", c.cfg.Rank, f.Src, derr))
				continue
			}
			c.framesRecv.Add(1)
			c.handler(transport.Frame{Src: int(f.Src), Dst: int(f.Dst), Tag: int(f.Tag), Payload: v, Wire: int64(n)})
		case transport.KindBye:
			c.dropConn(rank, conn)
			return
		case transport.KindPing:
			// Liveness probe: the successful read is the signal; nothing to
			// deliver. (Byte accounting above already includes it.)
		default:
			// Control frames are not expected mid-stream; ignore.
		}
	}
}

// writeLoop drains one peer's queue. Each pass swaps out everything queued
// since the last write and pushes it in a single vectored write (writev), so
// many small frames queued during one compute phase cost one syscall — the
// flush-on-drain coalescing. On write failure the connection is redialed
// with exponential backoff up to the attempt budget; exhausting the budget
// marks the peer dead and records a wrapped error.
func (c *Conn) writeLoop(p *peer) {
	defer c.writerWG.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closing {
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
			c.fail(err)
			p.mu.Lock()
			p.dead = true
			p.err = pe
			for _, wb := range p.queue {
				transport.PutWireBuf(wb)
			}
			p.queue = nil
			p.mu.Unlock()
			c.notifyPeerFailure(*pe)
			return
		}
		clear(batch)
		p.mu.Lock()
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
// partial write the connection is dropped (the receiver discards the
// truncated frame with it) and the batch is resent from the first frame not
// fully written — the same at-least-once contract as per-frame retries.
func (c *Conn) writeBatch(p *peer, batch []*transport.WireBuf) error {
	done := 0 // frames fully written
	backoff := c.cfg.DialBackoff
	deadline := time.Now().Add(c.cfg.RetryTimeout)
	phase := transport.PhaseDial // no connection ever established this batch
	var lastErr error
	attempt := 0
	for ; attempt < c.cfg.DialAttempts; attempt++ {
		if c.killed.Load() {
			return &transport.PeerError{Rank: p.rank, Phase: transport.PhaseClose,
				Err: errors.New("transport killed")}
		}
		if attempt > 0 {
			p.mu.Lock()
			closing := p.closing
			p.mu.Unlock()
			if closing && pingsOnly(batch[done:]) {
				return errPingsAbandonedOnClose
			}
			if time.Now().Add(backoff).After(deadline) {
				return &transport.PeerError{Rank: p.rank, Phase: phase,
					Err: fmt.Errorf("tcp: rank %d: sending to rank %d failed after %d attempts (retry deadline %v exceeded): %w",
						c.cfg.Rank, p.rank, attempt, c.cfg.RetryTimeout, lastErr)}
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		conn, err := c.peerConn(p)
		if err != nil {
			lastErr = err
			continue
		}
		phase = transport.PhaseSend
		p.iov = p.iov[:0]
		for _, wb := range batch[done:] {
			p.iov = append(p.iov, wb.B)
		}
		iov := p.iov // WriteTo advances its receiver; keep p.iov's header intact
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		n, err := iov.WriteTo(conn)
		clear(p.iov) // drop buffer refs; the backing array is reused next pass
		if err == nil {
			conn.SetWriteDeadline(time.Time{})
			return nil
		}
		lastErr = err
		for done < len(batch) && n >= int64(len(batch[done].B)) {
			n -= int64(len(batch[done].B))
			done++
		}
		c.dropConn(p.rank, conn)
	}
	return &transport.PeerError{Rank: p.rank, Phase: phase,
		Err: fmt.Errorf("tcp: rank %d: sending to rank %d failed after %d attempts: %w",
			c.cfg.Rank, p.rank, attempt, lastErr)}
}

// peerConn returns the peer's current connection, dialing its data
// listener (and identifying ourselves with a hello frame) if none exists.
func (c *Conn) peerConn(p *peer) (net.Conn, error) {
	p.mu.Lock()
	if p.conn != nil {
		conn := p.conn
		p.mu.Unlock()
		return conn, nil
	}
	p.mu.Unlock()

	c.addrMu.RLock()
	addr := c.addrs[p.rank]
	c.addrMu.RUnlock()
	if addr == "" {
		return nil, fmt.Errorf("rank %d not admitted (no address)", p.rank)
	}
	conn, err := c.cfg.Dial(addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c.track(conn)
	hello, err := transport.MarshalFrame(transport.WireFrame{
		Kind: transport.KindHello,
		Src:  int32(c.cfg.Rank),
		Dst:  int32(p.rank),
	})
	if err != nil {
		c.untrack(conn)
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(hello); err != nil {
		c.untrack(conn)
		conn.Close()
		return nil, fmt.Errorf("hello to %s: %w", addr, err)
	}
	conn.SetWriteDeadline(time.Time{})
	c.bytesSent.Add(int64(len(hello)))
	c.sentKind[transport.KindHello].Add(1)

	// An inbound connection may have raced the dial and become the write
	// connection meanwhile; writes then stay on it. The dialed connection is
	// read all the same, never closed: in a cross-dial the peer races the
	// same way and may have adopted *this* one for its writes, and a socket
	// closed here would swallow what it sends there — its writes succeed
	// into a buffer nobody reads, so nothing would ever resend them and the
	// world hangs. The spare socket idles until Close.
	p.mu.Lock()
	if p.conn == nil {
		p.conn = conn
	}
	write := p.conn
	p.mu.Unlock()

	c.readerWG.Add(1)
	go func() {
		defer c.readerWG.Done()
		c.readLoop(p.rank, conn)
	}()
	return write, nil
}

var _ transport.Conn = (*Conn)(nil)

// ErrClosed reports whether err stems from using a closed transport.
func ErrClosed(err error) bool {
	return err != nil && errors.Is(err, net.ErrClosed)
}
