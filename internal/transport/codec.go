package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"plshuffle/internal/data"
	"plshuffle/internal/tensor"
)

// Payload type codes. The set covers everything the runtime actually moves
// between ranks: byte buffers (encoded sample batches among them), gradient
// and tensor float buffers, ID lists, and the scalar types the conformance
// suite and control paths use. The encoding is deterministic (little-endian,
// fixed-width) so a frame's bytes are a pure function of its value —
// the property FuzzFrameRoundTrip pins.
const (
	codeNil     = uint8(0)
	codeBytes   = uint8(1)
	codeFloat32 = uint8(2) // []float32 — gradient buffers
	codeFloat64 = uint8(3) // []float64 — loss/metric reductions
	codeInts    = uint8(4) // []int, as int64 on the wire
	codeInt32s  = uint8(5)
	codeInt64s  = uint8(6)
	codeUint64s = uint8(7)
	codeString  = uint8(8)
	codeInt     = uint8(9)  // scalar int, as int64
	codeFloat   = uint8(10) // scalar float64
	codeBool    = uint8(11)
	codeMatrix  = uint8(13) // *tensor.Matrix: rows, cols, row-major float32s
	// codeSampleRefs: a SampleRefs list as delta uvarints — the compact
	// dedup reference payload (DESIGN.md §13).
	codeSampleRefs = uint8(14)
	// Codes 12 (a single data.Sample; samples travel as []byte batches) and
	// 15 are retired and must not be reassigned: decoders reject them like
	// any unknown code.
)

// intIs64 gates the bulk path of []int, which travels as int64.
const intIs64 = bits.UintSize == 64

// SampleRefs is the payload of a dedup reference frame: the IDs of samples
// the sender knows the receiver already holds in its exchange side-cache,
// shipped instead of the sample payloads themselves. The IDs must be
// strictly ascending (in uint64 order), which the delta encoding exploits:
// first ID as a uvarint, then each successor as uvarint(id[i]-id[i-1]),
// never zero. The decoder enforces minimal varints and non-zero deltas, so
// every accepted buffer re-encodes byte-identically — the canonical-codec
// property FuzzPayloadRoundTrip pins for all payload types.
type SampleRefs []int64

// appendSampleRefs encodes r after the code byte already placed in dst.
func appendSampleRefs(dst []byte, r SampleRefs) ([]byte, error) {
	prev := uint64(0)
	for i, id := range r {
		v := uint64(id)
		if i == 0 {
			dst = binary.AppendUvarint(dst, v)
		} else {
			if v == prev {
				return dst, fmt.Errorf("transport: SampleRefs not strictly ascending at index %d (id %d)", i, id)
			}
			dst = binary.AppendUvarint(dst, v-prev)
		}
		prev = v
	}
	return dst, nil
}

// minUvarint decodes a minimally-encoded uvarint: non-minimal encodings
// (a multi-byte varint whose last group is zero) and overflows are
// rejected so decode→re-encode is the identity.
func minUvarint(buf []byte) (uint64, int, bool) {
	v, n := binary.Uvarint(buf)
	if n <= 0 || (n > 1 && buf[n-1] == 0) {
		return 0, 0, false
	}
	return v, n, true
}

func decodeSampleRefs(body []byte) (SampleRefs, error) {
	out := SampleRefs{}
	prev := uint64(0)
	for i := 0; len(body) > 0; i++ {
		v, n, ok := minUvarint(body)
		if !ok {
			return nil, fmt.Errorf("transport: SampleRefs entry %d: malformed varint", i)
		}
		body = body[n:]
		if i == 0 {
			prev = v
		} else {
			if v == 0 {
				return nil, fmt.Errorf("transport: SampleRefs entry %d: zero delta", i)
			}
			prev += v
		}
		out = append(out, int64(prev))
	}
	return out, nil
}

func uvarintLen(v uint64) int64 {
	n := int64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodePayload serializes a payload value for a wire backend. The first
// byte is a type code; the rest is the value. It returns an error for types
// outside the wire-encodable set — such payloads work on the inproc backend
// (passed by reference) but cannot cross a process boundary.
func EncodePayload(p any) ([]byte, error) {
	return AppendPayload(make([]byte, 0, PayloadWireSize(p)), p)
}

// AppendPayload is the allocation-free core of EncodePayload: it appends the
// encoding to dst (growing it if needed) and returns the extended slice.
// Hot paths pass a pooled or reused buffer so the steady state allocates
// nothing; the bytes produced are identical to EncodePayload's. On a
// little-endian host a numeric slice is appended as one copy of its memory
// (see data.BytesOf); the per-element loops are the big-endian path and produce
// the same bytes.
func AppendPayload(dst []byte, p any) ([]byte, error) {
	switch v := p.(type) {
	case nil:
		return append(dst, codeNil), nil
	case []byte:
		dst = append(dst, codeBytes)
		return append(dst, v...), nil
	case []float32:
		dst = append(dst, codeFloat32)
		if data.HostLittleEndian {
			return append(dst, data.BytesOf(v)...), nil
		}
		for _, f := range v {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
		}
		return dst, nil
	case []float64:
		dst = append(dst, codeFloat64)
		if data.HostLittleEndian {
			return append(dst, data.BytesOf(v)...), nil
		}
		for _, f := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst, nil
	case []int:
		dst = append(dst, codeInts)
		if data.HostLittleEndian && intIs64 {
			return append(dst, data.BytesOf(v)...), nil
		}
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(x)))
		}
		return dst, nil
	case []int32:
		dst = append(dst, codeInt32s)
		if data.HostLittleEndian {
			return append(dst, data.BytesOf(v)...), nil
		}
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
		return dst, nil
	case []int64:
		dst = append(dst, codeInt64s)
		if data.HostLittleEndian {
			return append(dst, data.BytesOf(v)...), nil
		}
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
		return dst, nil
	case []uint64:
		dst = append(dst, codeUint64s)
		if data.HostLittleEndian {
			return append(dst, data.BytesOf(v)...), nil
		}
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, x)
		}
		return dst, nil
	case string:
		dst = append(dst, codeString)
		return append(dst, v...), nil
	case int:
		dst = append(dst, codeInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(int64(v))), nil
	case float64:
		dst = append(dst, codeFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v)), nil
	case bool:
		b := byte(0)
		if v {
			b = 1
		}
		return append(dst, codeBool, b), nil
	case SampleRefs:
		dst = append(dst, codeSampleRefs)
		return appendSampleRefs(dst, v)
	case *tensor.Matrix:
		if v == nil {
			return append(dst, codeNil), nil
		}
		dst = append(dst, codeMatrix)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Rows))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Cols))
		if data.HostLittleEndian {
			return append(dst, data.BytesOf(v.Data)...), nil
		}
		for _, f := range v.Data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("transport: payload type %T is not wire-encodable", p)
	}
}

// DecodePayload parses an EncodePayload buffer back into the corresponding
// Go value. Malformed input returns an error; it never panics.
func DecodePayload(buf []byte) (any, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("transport: empty payload")
	}
	code, body := buf[0], buf[1:]
	switch code {
	case codeNil:
		if len(body) != 0 {
			return nil, fmt.Errorf("transport: nil payload with %d trailing bytes", len(body))
		}
		return nil, nil
	case codeBytes:
		out := make([]byte, len(body))
		copy(out, body)
		return out, nil
	case codeFloat32:
		if len(body)%4 != 0 {
			return nil, fmt.Errorf("transport: float32 payload length %d not a multiple of 4", len(body))
		}
		out := make([]float32, len(body)/4)
		if data.HostLittleEndian {
			copy(data.BytesOf(out), body)
			return out, nil
		}
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return out, nil
	case codeFloat64:
		if len(body)%8 != 0 {
			return nil, fmt.Errorf("transport: float64 payload length %d not a multiple of 8", len(body))
		}
		out := make([]float64, len(body)/8)
		if data.HostLittleEndian {
			copy(data.BytesOf(out), body)
			return out, nil
		}
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return out, nil
	case codeInts:
		if len(body)%8 != 0 {
			return nil, fmt.Errorf("transport: int payload length %d not a multiple of 8", len(body))
		}
		out := make([]int, len(body)/8)
		if data.HostLittleEndian && intIs64 {
			copy(data.BytesOf(out), body)
			return out, nil
		}
		for i := range out {
			out[i] = int(int64(binary.LittleEndian.Uint64(body[8*i:])))
		}
		return out, nil
	case codeInt32s:
		if len(body)%4 != 0 {
			return nil, fmt.Errorf("transport: int32 payload length %d not a multiple of 4", len(body))
		}
		out := make([]int32, len(body)/4)
		if data.HostLittleEndian {
			copy(data.BytesOf(out), body)
			return out, nil
		}
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return out, nil
	case codeInt64s:
		if len(body)%8 != 0 {
			return nil, fmt.Errorf("transport: int64 payload length %d not a multiple of 8", len(body))
		}
		out := make([]int64, len(body)/8)
		if data.HostLittleEndian {
			copy(data.BytesOf(out), body)
			return out, nil
		}
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return out, nil
	case codeUint64s:
		if len(body)%8 != 0 {
			return nil, fmt.Errorf("transport: uint64 payload length %d not a multiple of 8", len(body))
		}
		out := make([]uint64, len(body)/8)
		if data.HostLittleEndian {
			copy(data.BytesOf(out), body)
			return out, nil
		}
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		return out, nil
	case codeString:
		return string(body), nil
	case codeInt:
		if len(body) != 8 {
			return nil, fmt.Errorf("transport: scalar int payload length %d, want 8", len(body))
		}
		return int(int64(binary.LittleEndian.Uint64(body))), nil
	case codeFloat:
		if len(body) != 8 {
			return nil, fmt.Errorf("transport: scalar float payload length %d, want 8", len(body))
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(body)), nil
	case codeBool:
		if len(body) != 1 || body[0] > 1 {
			return nil, fmt.Errorf("transport: malformed bool payload")
		}
		return body[0] == 1, nil
	case codeSampleRefs:
		return decodeSampleRefs(body)
	case codeMatrix:
		if len(body) < 8 {
			return nil, fmt.Errorf("transport: matrix payload truncated")
		}
		rows := int(binary.LittleEndian.Uint32(body))
		cols := int(binary.LittleEndian.Uint32(body[4:]))
		if rows < 0 || cols < 0 || rows*cols < 0 || len(body)-8 != 4*rows*cols ||
			(cols > 0 && rows > MaxFramePayload/4/cols) {
			return nil, fmt.Errorf("transport: matrix payload %dx%d does not match %d data bytes", rows, cols, len(body)-8)
		}
		m := tensor.New(rows, cols)
		if data.HostLittleEndian {
			copy(data.BytesOf(m.Data), body[8:])
			return m, nil
		}
		for i := range m.Data {
			m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[8+4*i:]))
		}
		return m, nil
	default:
		return nil, fmt.Errorf("transport: unknown payload type code %d", code)
	}
}

// DecodePayloadOwned is DecodePayload for a buffer the caller gives up,
// typically one from GetBytes: a []byte payload comes back in buf's own
// memory, moved to its start so that it is still a buffer the pool takes
// back, and any other payload is decoded and buf released with PutBytes.
// The TCP reader decompresses into a pooled buffer and delivers it this way.
func DecodePayloadOwned(buf []byte) (any, error) {
	if len(buf) > 0 && buf[0] == codeBytes {
		return buf[:copy(buf, buf[1:])], nil
	}
	v, err := DecodePayload(buf)
	PutBytes(buf)
	return v, err
}

// FrameWireSize returns the exact number of bytes a data frame carrying
// this payload occupies on the wire (length prefix + frame header + encoded
// payload). The codec is deterministic, so this equals what the TCP backend
// actually writes — phase-level byte accounting uses it to attribute wire
// traffic to the operation that caused it, which raw transport counters
// cannot do once frames overlap with compute.
func FrameWireSize(p any) int64 {
	return 4 + wireHeaderLen + PayloadWireSize(p)
}

// PayloadWireSize estimates the encoded size of a payload without
// allocating — the inproc backend's byte accounting. Unknown types count as
// zero bytes (they never cross a wire).
func PayloadWireSize(p any) int64 {
	switch v := p.(type) {
	case nil:
		return 1
	case []byte:
		return int64(1 + len(v))
	case []float32:
		return int64(1 + 4*len(v))
	case []float64:
		return int64(1 + 8*len(v))
	case []int:
		return int64(1 + 8*len(v))
	case []int32:
		return int64(1 + 4*len(v))
	case []int64, []uint64:
		switch w := p.(type) {
		case []int64:
			return int64(1 + 8*len(w))
		case []uint64:
			return int64(1 + 8*len(w))
		}
		return 1
	case string:
		return int64(1 + len(v))
	case int, float64:
		return 9
	case bool:
		return 2
	case SampleRefs:
		n := int64(1)
		prev := uint64(0)
		for i, id := range v {
			if i == 0 {
				n += uvarintLen(uint64(id))
			} else {
				n += uvarintLen(uint64(id) - prev)
			}
			prev = uint64(id)
		}
		return n
	case *tensor.Matrix:
		if v == nil {
			return 1
		}
		return int64(9 + 4*len(v.Data))
	default:
		return 0
	}
}
