// Package transport defines the pluggable point-to-point message layer the
// MPI-like runtime (internal/mpi) sits on. A backend moves addressed frames
// between distinct ranks; everything above it — mailbox matching with MPI
// semantics (per-(pair, tag) FIFO, ANY_SOURCE), collectives, the exchange
// scheduler — is backend-agnostic.
//
// Two backends ship with the repo:
//
//   - inproc: the original single-process runtime. Ranks are goroutines and
//     Send is a synchronous function call into the destination's handler
//     with a copy of the payload. This is the default and the fastest.
//   - tcp: ranks are OS processes. Frames are length-prefixed binary
//     records over persistent TCP connections, with a rendezvous bootstrap,
//     dial retry with exponential backoff, and drained shutdown. See
//     internal/transport/tcp.
//
// The split mirrors how real MPI implementations layer matching over BTLs
// (byte-transfer layers): semantics live in one place, wires in another,
// and the conformance suite (internal/transport/transporttest) pins the
// semantics both backends must provide. Both carry the same seven payload
// types, the ones the runtime sends (see AppendPayload), and refuse any
// other with the same error.
package transport

import (
	"errors"
	"fmt"
	"time"
)

// Frame is one addressed message as delivered to a rank's handler. Payload
// is a Go value of one of the codec's types: for the inproc backend a copy
// of the value the sender passed (ClonePayload), for wire backends the
// result of DecodePayload. A []float32 or []byte payload is memory the
// receiver owns outright, often drawn from the payload pools: the one
// consumer done with it may hand it back with PutFloat32s or PutBytes (see
// pool.go).
type Frame struct {
	Src     int
	Dst     int
	Tag     int
	Payload any
	// Wire is the exact number of bytes this frame occupied on the wire
	// (length prefix and header included): the bytes actually read off the
	// socket for the TCP backend — compressed size if the frame traveled as
	// KindDataZ — and the deterministic FrameWireSize for inproc.
	Wire int64
}

// Handler receives inbound frames for the local rank. Implementations of
// Conn may invoke it from multiple goroutines concurrently; the mpi mailbox
// serializes internally. A handler must not block for long — it is called
// on the backend's delivery path.
type Handler func(Frame)

// Stats is a snapshot of a connection's traffic counters — the one record
// of what crossed it, which every interposing wrapper forwards. For wire
// backends the byte counts are real bytes moved over sockets (including
// frame headers); for inproc they are the estimated encoded payload sizes.
// Wire distinguishes the two so callers (e.g. the trainer's trace events)
// can report genuine network volume when it exists. Safe to take
// concurrently with traffic (telemetry scrapes it from an HTTP goroutine).
type Stats struct {
	FramesSent int64
	FramesRecv int64
	BytesSent  int64
	BytesRecv  int64
	Wire       bool

	// The totals decomposed by wire frame kind, indexed by the Kind*
	// constants: frames and wire bytes (length prefix and header included)
	// in each direction, so an observer can tell data volume from bootstrap
	// and liveness overhead, and compressed/dedup'd exchange traffic from
	// plain sample payloads. Zero on backends without real sockets.
	SentByKind      [NumKinds]int64
	RecvByKind      [NumKinds]int64
	SentBytesByKind [NumKinds]int64
	RecvBytesByKind [NumKinds]int64

	// CompressRaw is the cumulative payload bytes that entered the wire
	// compressor and CompressWire what left it and was framed — only for
	// frames actually sent compressed, so raw/wire is the achieved
	// compression ratio. Zero on backends that do not compress.
	CompressRaw  int64
	CompressWire int64
}

// NumKinds is the number of wire frame kinds (KindData..KindDataRef),
// sizing the per-kind counter arrays of Stats.
const NumKinds = int(KindDataRef) + 1

// LivenessStatser is implemented by backends that track when each peer was
// last heard from (any successfully read frame, heartbeats included).
// LastHeard returns the zero time for the own rank and for peers never
// heard from. It must be safe to call concurrently with traffic.
type LivenessStatser interface {
	LastHeard(rank int) time.Time
}

// Unwrapper is implemented by interposing transports (fault injectors,
// chaos wrappers) that delegate to an inner Conn. The As* accessors walk the
// chain so observability and control-plane calls reach the real backend
// through any stack of wrappers.
type Unwrapper interface {
	Underlying() Conn
}

// findConn returns the first connection in c's wrapper chain (c itself, then
// each Underlying) that implements T. Only control-plane and observability
// interfaces are looked up this way: frames always enter at the outermost
// connection's Send, so every interposed wrapper sees them.
func findConn[T any](c Conn) (T, bool) {
	for c != nil {
		if t, ok := c.(T); ok {
			return t, true
		}
		u, ok := c.(Unwrapper)
		if !ok {
			break
		}
		c = u.Underlying()
	}
	var zero T
	return zero, false
}

// AsLivenessStatser finds the first LivenessStatser in c's wrapper chain.
func AsLivenessStatser(c Conn) (LivenessStatser, bool) { return findConn[LivenessStatser](c) }

// Conn is one rank's endpoint into a transport backend.
//
// Semantics every backend must provide (enforced by transporttest):
//
//   - Eager sends: Send enqueues or delivers and returns without waiting
//     for the receiver; it must never deadlock against an opposing Send.
//     After Send returns the caller may mutate its buffers freely.
//   - Non-overtaking: two frames from the same source to the same
//     destination arrive in the order they were sent.
//   - Distinct ranks: Send(ownRank, ...) is refused with ErrSelfSend. What a
//     rank would send itself it keeps.
//   - Attribution: a delivered frame's Src is the rank that sent it.
//
// Send returns the exact number of bytes the frame occupies on the wire —
// length prefix and header included, after compression if the backend
// compressed it; the deterministic FrameWireSize on backends without a wire.
// It is the sender-side twin of Frame.Wire, and the same bytes Stats counts.
// Send returns an error only for local failures (a send to itself,
// unencodable payload, closed transport, exhausted retry budget); delivery
// itself is asynchronous.
type Conn interface {
	Rank() int
	Size() int
	Send(dst, tag int, payload any) (wire int64, err error)
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
	// Close drains queued outbound frames (bounded by the backend's drain
	// budget) and releases resources. It reports the first transport
	// failure observed during the connection's lifetime, if any.
	Close() error
}

// ErrSelfSend is what every backend's Send returns, wrapped, for a frame
// addressed to the sending rank itself.
var ErrSelfSend = errors.New("transport: a rank does not send to itself")

// Phases a peer failure can be observed in — the Phase field of PeerError.
// They name the transport operation that exposed the failure, not the
// training phase (the trainer maps failures onto its own phases).
const (
	PhaseSend  = "send"  // outbound frame could not be delivered
	PhaseRecv  = "recv"  // inbound connection died mid-stream
	PhaseDial  = "dial"  // peer's data listener unreachable
	PhaseClose = "close" // local endpoint closed while ops pending
)

// PeerError is the typed failure a transport backend reports when one
// specific remote rank is unreachable: dead process, partitioned network,
// exhausted retry budget. It deliberately identifies WHICH peer failed and
// during WHAT operation, so upper layers can degrade around the dead rank
// (shrink the effective exchange fraction, drop it from collectives)
// instead of treating the failure as a whole-world loss.
type PeerError struct {
	Rank  int    // the unreachable peer's rank
	Phase string // transport operation that surfaced the failure (Phase* consts)
	Err   error  // underlying cause, if any
}

func (e *PeerError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("transport: peer rank %d unreachable (%s)", e.Rank, e.Phase)
	}
	return fmt.Sprintf("transport: peer rank %d unreachable (%s): %v", e.Rank, e.Phase, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// AsPeerError extracts a *PeerError from an error chain.
func AsPeerError(err error) (*PeerError, bool) {
	var pe *PeerError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// FailureNotifier is implemented by backends that detect peer death
// asynchronously (heartbeats, connection resets, exhausted redial budgets).
// OnPeerFailure registers a callback invoked at most once per failed peer,
// from a backend goroutine; it must be registered before traffic flows and
// must not block. The mpi layer uses it to wake receives and collectives
// that would otherwise block forever on a dead rank.
type FailureNotifier interface {
	OnPeerFailure(func(PeerError))
}

// JoinRequest describes a would-be rank that reached the transport's
// rendezvous mid-run (elastic join, DESIGN.md §15): the world rank the
// bootstrap root assigned it and the data-listener address it advertises.
// The transport only performs the handshake; admitting the rank into the
// running world (AdmitPeer on every member, mpi.Grow, state transfer) is the
// upper layers' protocol.
type JoinRequest struct {
	Rank int
	Addr string
}

// JoinNotifier is implemented by backends whose bootstrap root keeps
// accepting rendezvous hellos after the initial world has formed.
// OnJoinRequest registers a callback invoked once per admitted joiner, from
// a backend goroutine; it must be registered before traffic flows and must
// not block.
type JoinNotifier interface {
	OnJoinRequest(func(JoinRequest))
}

// PeerAdmitter is implemented by backends that can attach a new peer to an
// already-running endpoint: AdmitPeer records the peer's address so
// subsequent sends toward rank dial it like any bootstrap-time peer. The rank must lie within the endpoint's configured
// capacity (tcp.Config.MaxSize). Shared-memory backends, whose worlds are
// fixed at creation, simply don't implement the interface.
type PeerAdmitter interface {
	AdmitPeer(rank int, addr string) error
}

// AsPeerAdmitter finds the first PeerAdmitter in c's wrapper chain.
// Admission is control-plane state, not a frame, so unwrapping through
// fault injectors is safe (they interpose on frames, not peer tables).
func AsPeerAdmitter(c Conn) (PeerAdmitter, bool) { return findConn[PeerAdmitter](c) }

// AsJoinNotifier finds the first JoinNotifier in c's wrapper chain.
func AsJoinNotifier(c Conn) (JoinNotifier, bool) { return findConn[JoinNotifier](c) }

// Killer is implemented by backends that can simulate an abrupt process
// death for fault-injection tests: Kill tears the endpoint down instantly —
// no drain, no goodbye frames — exactly as SIGKILL would. After Kill every
// Send fails and peers observe the silence through their own detectors.
type Killer interface {
	Kill()
}

// Resetter is implemented by wire backends whose established connections
// can be torn down WITHOUT declaring any peer dead — the fault-injection
// analogue of a transient network blip (switch reboot, TCP RST storm).
// After ResetPeers the next frame toward each peer redials within the
// backend's normal retry budget; no queued frame is lost and no failure is
// reported unless the budget is then exhausted. Shared-memory backends have
// no connections to reset and simply don't implement the interface.
type Resetter interface {
	ResetPeers()
}

// ClonePayload copies a payload for a backend that delivers it without a
// wire (inproc, and the fault injector's delay queue), so distributed-memory
// semantics hold in a shared address space: after a send, mutating the
// caller's buffer must not affect the receiver. It accepts exactly the types
// AppendPayload encodes and refuses any other with AppendPayload's error, so
// every backend refuses what a wire backend cannot carry.
func ClonePayload(p any) (any, error) {
	switch v := p.(type) {
	case nil:
		return nil, nil
	case []byte:
		// Pooled: the exchange releases the batches it decodes.
		out := GetBytes(len(v))
		copy(out, v)
		return out, nil
	case []float32:
		// From the pool the collectives release received chunks into, so an
		// inproc ring recycles its clones the way a TCP ring recycles reads.
		out := GetFloat32s(len(v))
		copy(out, v)
		return out, nil
	case []float64:
		return cloneSlice(v), nil
	case []int:
		return cloneSlice(v), nil
	case []int64:
		return cloneSlice(v), nil
	case SampleRefs:
		return cloneSlice(v), nil
	default:
		return nil, unencodable(p)
	}
}

// cloneSlice copies s into a new non-nil slice, as DecodePayload returns an
// empty one.
func cloneSlice[S ~[]E, E any](s S) S {
	out := make(S, len(s))
	copy(out, s)
	return out
}
