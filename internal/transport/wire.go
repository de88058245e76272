package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"plshuffle/internal/data"
)

// Frame kinds on the wire. Data frames carry codec-encoded payloads between
// ranks; the control kinds implement the TCP backend's bootstrap.
const (
	KindData  = uint8(0) // payload = EncodePayload output
	KindHello = uint8(1) // dialer identifies itself; payload = optional addr
	KindTable = uint8(2) // rendezvous rank↔addr table; payload = EncodeAddrTable
	KindBye   = uint8(3) // graceful shutdown marker
	KindPing  = uint8(4) // liveness heartbeat; carries no payload
	// KindDataZ is a compressed data frame: the payload section is a
	// wirecomp block whose decoded bytes are exactly a KindData payload
	// (EncodePayload output). Only sent to peers that advertised
	// compression support during the bootstrap (DESIGN.md §13).
	KindDataZ = uint8(5)
	// KindDataRef is a dedup reference frame: the payload is an encoded
	// SampleRefs value naming samples the receiver already holds in its
	// exchange side-cache. It is a data-plane frame (delivered like
	// KindData) with its own kind so per-kind byte counters isolate the
	// reference traffic the dedup protocol substitutes for payloads.
	KindDataRef = uint8(6)
)

// WireFrame is the binary frame exchanged by wire backends:
//
//	uint32  body length (excluding this prefix)
//	uint8   kind
//	int32   src rank
//	int32   dst rank
//	int64   tag
//	[]byte  payload
//
// All integers are little-endian. Tags may be negative (the runtime's
// internal collective tags are), hence the signed 64-bit field.
type WireFrame struct {
	Kind    uint8
	Src     int32
	Dst     int32
	Tag     int64
	Payload []byte
}

// wireHeaderLen is the fixed body header: kind + src + dst + tag.
const wireHeaderLen = 1 + 4 + 4 + 8

// MaxFramePayload bounds a frame's payload so a malformed or hostile length
// prefix cannot force a giant allocation.
const MaxFramePayload = 1 << 28 // 256 MiB

// MarshalFrame encodes the frame including its length prefix, ready to be
// written to a stream in a single Write.
func MarshalFrame(f WireFrame) ([]byte, error) {
	return AppendFrame(make([]byte, 0, 4+wireHeaderLen+len(f.Payload)), f)
}

// AppendFrame appends the frame's wire encoding (length prefix included) to
// dst and returns the extended slice. The bytes are identical to
// MarshalFrame's; hot paths pass a pooled buffer so steady-state sends
// allocate nothing.
func AppendFrame(dst []byte, f WireFrame) ([]byte, error) {
	if len(f.Payload) > MaxFramePayload {
		return dst, fmt.Errorf("transport: frame payload %d bytes exceeds limit %d", len(f.Payload), MaxFramePayload)
	}
	body := wireHeaderLen + len(f.Payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, f.Kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Dst))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Tag))
	return append(dst, f.Payload...), nil
}

// DataKindFor returns the wire kind a data-plane payload travels under:
// SampleRefs ride their own KindDataRef so byte counters can tell dedup
// references from sample payloads; everything else is KindData. Both kinds
// share the KindData delivery path (DecodePayload → handler).
func DataKindFor(payload any) uint8 {
	if _, ok := payload.(SampleRefs); ok {
		return KindDataRef
	}
	return KindData
}

// AppendDataFrame appends a complete data frame carrying payload to dst,
// encoding the payload directly into the frame (no intermediate payload
// buffer — the pooled fast path of the TCP Send). The produced bytes are
// identical to MarshalFrame over EncodePayload; the kind is DataKindFor
// of the payload.
func AppendDataFrame(dst []byte, src, dstRank int32, tag int64, payload any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, DataKindFor(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dstRank))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tag))
	var err error
	dst, err = AppendPayload(dst, payload)
	if err != nil {
		return dst[:start], err
	}
	body := len(dst) - start - 4
	if body-wireHeaderLen > MaxFramePayload {
		return dst[:start], fmt.Errorf("transport: frame payload %d bytes exceeds limit %d", body-wireHeaderLen, MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// UnmarshalFrame decodes a frame from a length-prefixed buffer as produced
// by MarshalFrame. It never panics on malformed input.
func UnmarshalFrame(buf []byte) (WireFrame, error) {
	if len(buf) < 4 {
		return WireFrame{}, fmt.Errorf("transport: frame truncated: %d bytes", len(buf))
	}
	body := binary.LittleEndian.Uint32(buf)
	if body < wireHeaderLen || body > wireHeaderLen+MaxFramePayload {
		return WireFrame{}, fmt.Errorf("transport: frame body length %d out of range", body)
	}
	if uint32(len(buf)-4) != body {
		return WireFrame{}, fmt.Errorf("transport: frame length mismatch: prefix %d, have %d", body, len(buf)-4)
	}
	f := WireFrame{
		Kind: buf[4],
		Src:  int32(binary.LittleEndian.Uint32(buf[5:])),
		Dst:  int32(binary.LittleEndian.Uint32(buf[9:])),
		Tag:  int64(binary.LittleEndian.Uint64(buf[13:])),
	}
	if f.Kind > KindDataRef {
		return WireFrame{}, fmt.Errorf("transport: unknown frame kind %d", f.Kind)
	}
	if n := int(body) - wireHeaderLen; n > 0 {
		f.Payload = make([]byte, n)
		copy(f.Payload, buf[4+wireHeaderLen:])
	}
	return f, nil
}

// ReadFrame reads one length-prefixed frame from r. It returns the frame
// and the total number of wire bytes consumed.
func ReadFrame(r io.Reader) (WireFrame, int, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return WireFrame{}, 0, err
	}
	body := binary.LittleEndian.Uint32(prefix[:])
	if body < wireHeaderLen || body > wireHeaderLen+MaxFramePayload {
		return WireFrame{}, 4, fmt.Errorf("transport: frame body length %d out of range", body)
	}
	buf := make([]byte, 4+body)
	copy(buf, prefix[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return WireFrame{}, 4, fmt.Errorf("transport: reading frame body: %w", err)
	}
	f, err := UnmarshalFrame(buf)
	return f, len(buf), err
}

// ReadFrameInto reads one length-prefixed frame from r into *scratch,
// growing it only when a frame exceeds its capacity, and returns the frame
// plus the wire bytes consumed. The returned frame's Payload aliases
// *scratch: it is valid only until the next ReadFrameInto call on the same
// scratch buffer, so callers must consume (decode/copy) it first. This is
// the TCP read loop's zero-allocation steady-state path.
//
// Two payloads skip the scratch and come back decoded, in pooled memory the
// caller owns, with f.Payload left nil: the body of a KindData frame
// carrying a []float32 (a gradient chunk) is read from r straight into a
// slice from GetFloat32s and returned as floats, and the body of one
// carrying a []byte (a sample batch) into a slice from GetBytes, returned as
// body. Either is non-nil, possibly empty, when it is the one taken. Only
// little-endian hosts read floats this way; elsewhere such a frame comes
// back like any other.
func ReadFrameInto(r io.Reader, scratch *[]byte) (f WireFrame, floats []float32, body []byte, n int, err error) {
	const peek = 4 + wireHeaderLen + 1 // prefix, header and the payload's type code
	buf := *scratch
	if cap(buf) < peek {
		buf = make([]byte, 0, 4096)
	}
	buf = buf[:4]
	*scratch = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		return WireFrame{}, nil, nil, 0, err
	}
	bodyLen := binary.LittleEndian.Uint32(buf)
	if bodyLen < wireHeaderLen || bodyLen > wireHeaderLen+MaxFramePayload {
		return WireFrame{}, nil, nil, 4, fmt.Errorf("transport: frame body length %d out of range", bodyLen)
	}
	need := 4 + int(bodyLen)
	head := min(need, peek)
	buf = buf[:head]
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return WireFrame{}, nil, nil, 4, fmt.Errorf("transport: reading frame body: %w", err)
	}
	f = WireFrame{
		Kind: buf[4],
		Src:  int32(binary.LittleEndian.Uint32(buf[5:])),
		Dst:  int32(binary.LittleEndian.Uint32(buf[9:])),
		Tag:  int64(binary.LittleEndian.Uint64(buf[13:])),
	}
	if f.Kind > KindDataRef {
		return WireFrame{}, nil, nil, head, fmt.Errorf("transport: unknown frame kind %d", f.Kind)
	}
	if rest := need - head; f.Kind == KindData && head == peek {
		switch {
		case buf[peek-1] == codeFloat32 && data.HostLittleEndian && rest%4 == 0:
			floats = GetFloat32s(rest / 4)
			if _, err := io.ReadFull(r, data.BytesOf(floats)); err != nil {
				PutFloat32s(floats)
				return WireFrame{}, nil, nil, head, fmt.Errorf("transport: reading frame body: %w", err)
			}
			return f, floats, nil, need, nil
		case buf[peek-1] == codeBytes:
			body = GetBytes(rest)
			if _, err := io.ReadFull(r, body); err != nil {
				PutBytes(body)
				return WireFrame{}, nil, nil, head, fmt.Errorf("transport: reading frame body: %w", err)
			}
			return f, nil, body, need, nil
		}
	}
	if cap(buf) < need {
		grown := make([]byte, need)
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:need]
	}
	*scratch = buf
	if _, err := io.ReadFull(r, buf[head:]); err != nil {
		return WireFrame{}, nil, nil, head, fmt.Errorf("transport: reading frame body: %w", err)
	}
	if int(bodyLen) > wireHeaderLen {
		f.Payload = buf[4+wireHeaderLen:]
	}
	return f, nil, nil, need, nil
}

// EncodeAddrTable serializes the rank-indexed address table exchanged
// during the TCP rendezvous (KindTable payload).
func EncodeAddrTable(addrs []string) []byte {
	n := 4
	for _, a := range addrs {
		n += 4 + len(a)
	}
	buf := make([]byte, n)
	binary.LittleEndian.PutUint32(buf, uint32(len(addrs)))
	off := 4
	for _, a := range addrs {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(a)))
		off += 4
		copy(buf[off:], a)
		off += len(a)
	}
	return buf
}

// Per-rank capability flags carried by the v2 hello/table exchange. A rank
// advertises what it is WILLING TO RECEIVE; senders intersect their own
// config with the peer's advertisement, so a mixed world (some ranks with
// -wire-compress, some without) degrades to plain frames pairwise instead
// of failing.
const (
	// FlagCompress: the rank accepts KindDataZ (wirecomp-compressed)
	// frames and would like peers to send them.
	FlagCompress = byte(1 << 0)
)

// helloV2Marker begins a v2 hello payload. A v1 hello payload is the
// dialer's raw listen address, which is never empty and never starts with
// NUL, so the marker is unambiguous: marker, one flags byte, then the
// address bytes.
const helloV2Marker = byte(0x00)

// EncodeHello serializes a dialer's hello payload: v1 (bare address) when
// flags is zero — byte-identical to the pre-negotiation wire — and the v2
// marker+flags+addr form otherwise.
func EncodeHello(addr string, flags byte) []byte {
	if flags == 0 {
		return []byte(addr)
	}
	out := make([]byte, 0, 2+len(addr))
	out = append(out, helloV2Marker, flags)
	return append(out, addr...)
}

// DecodeHello parses a hello payload of either version.
func DecodeHello(payload []byte) (addr string, flags byte) {
	if len(payload) >= 2 && payload[0] == helloV2Marker {
		return string(payload[2:]), payload[1]
	}
	return string(payload), 0
}

// peerTableV2 flags the count word of a v2 table. v1 tables bound the
// count at 1<<20, so the high bit is never set by a legacy encoder.
const peerTableV2 = uint32(1 << 31)

// EncodePeerTable serializes the rendezvous rank↔(addr, capability) table.
// With all-zero flags it emits the legacy EncodeAddrTable bytes, so worlds
// that negotiated nothing stay wire-compatible with old peers; otherwise it
// emits the v2 form (count|peerTableV2, then len-prefixed addr + flag byte
// per rank).
func EncodePeerTable(addrs []string, flags []byte) []byte {
	anyFlags := false
	for _, f := range flags {
		if f != 0 {
			anyFlags = true
			break
		}
	}
	if !anyFlags {
		return EncodeAddrTable(addrs)
	}
	n := 4
	for _, a := range addrs {
		n += 4 + len(a) + 1
	}
	buf := make([]byte, n)
	binary.LittleEndian.PutUint32(buf, uint32(len(addrs))|peerTableV2)
	off := 4
	for i, a := range addrs {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(a)))
		off += 4
		copy(buf[off:], a)
		off += len(a)
		var f byte
		if i < len(flags) {
			f = flags[i]
		}
		buf[off] = f
		off++
	}
	return buf
}

// DecodePeerTable parses either table version; v1 input yields all-zero
// flags.
func DecodePeerTable(buf []byte) (addrs []string, flags []byte, err error) {
	if len(buf) >= 4 && binary.LittleEndian.Uint32(buf)&peerTableV2 != 0 {
		count := binary.LittleEndian.Uint32(buf) &^ peerTableV2
		if count > 1<<20 {
			return nil, nil, fmt.Errorf("transport: peer table count %d out of range", count)
		}
		off := 4
		addrs = make([]string, 0, count)
		flags = make([]byte, 0, count)
		for i := uint32(0); i < count; i++ {
			if len(buf)-off < 4 {
				return nil, nil, fmt.Errorf("transport: peer table entry %d truncated", i)
			}
			l := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			if l < 0 || len(buf)-off < l+1 {
				return nil, nil, fmt.Errorf("transport: peer table entry %d length %d out of range", i, l)
			}
			addrs = append(addrs, string(buf[off:off+l]))
			flags = append(flags, buf[off+l])
			off += l + 1
		}
		return addrs, flags, nil
	}
	addrs, err = DecodeAddrTable(buf)
	if err != nil {
		return nil, nil, err
	}
	return addrs, make([]byte, len(addrs)), nil
}

// DecodeAddrTable parses an EncodeAddrTable payload.
func DecodeAddrTable(buf []byte) ([]string, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("transport: addr table truncated")
	}
	count := binary.LittleEndian.Uint32(buf)
	if count > 1<<20 {
		return nil, fmt.Errorf("transport: addr table count %d out of range", count)
	}
	off := 4
	out := make([]string, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(buf)-off < 4 {
			return nil, fmt.Errorf("transport: addr table entry %d truncated", i)
		}
		l := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if l < 0 || len(buf)-off < l {
			return nil, fmt.Errorf("transport: addr table entry %d length %d out of range", i, l)
		}
		out = append(out, string(buf[off:off+l]))
		off += l
	}
	return out, nil
}
