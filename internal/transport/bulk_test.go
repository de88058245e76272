package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"plshuffle/internal/data"
	"plshuffle/internal/tensor"
)

// refAppendSlice and refDecodeSlice are the per-element slice encoder and
// decoder exactly as they stood before the bulk paths existed, kept here as
// the oracle: whatever AppendPayload/DecodePayload do now must produce and
// accept the same bytes.
func refAppendSlice(dst []byte, p any) []byte {
	switch v := p.(type) {
	case []float32:
		dst = append(dst, codeFloat32)
		for _, f := range v {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
		}
	case []float64:
		dst = append(dst, codeFloat64)
		for _, f := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	case []int:
		dst = append(dst, codeInts)
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(x)))
		}
	case []int32:
		dst = append(dst, codeInt32s)
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	case []int64:
		dst = append(dst, codeInt64s)
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	case []uint64:
		dst = append(dst, codeUint64s)
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, x)
		}
	case *tensor.Matrix:
		dst = append(dst, codeMatrix)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Rows))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Cols))
		for _, f := range v.Data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
		}
	default:
		panic(fmt.Sprintf("refAppendSlice: %T", p))
	}
	return dst
}

func refDecodeSlice(buf []byte) any {
	code, body := buf[0], buf[1:]
	switch code {
	case codeFloat32:
		out := make([]float32, len(body)/4)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return out
	case codeFloat64:
		out := make([]float64, len(body)/8)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return out
	case codeInts:
		out := make([]int, len(body)/8)
		for i := range out {
			out[i] = int(int64(binary.LittleEndian.Uint64(body[8*i:])))
		}
		return out
	case codeInt32s:
		out := make([]int32, len(body)/4)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return out
	case codeInt64s:
		out := make([]int64, len(body)/8)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return out
	case codeUint64s:
		out := make([]uint64, len(body)/8)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		return out
	case codeMatrix:
		m := tensor.New(int(binary.LittleEndian.Uint32(body)), int(binary.LittleEndian.Uint32(body[4:])))
		for i := range m.Data {
			m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[8+4*i:]))
		}
		return m
	default:
		panic(fmt.Sprintf("refDecodeSlice: code %d", code))
	}
}

// sliceVectors builds, for every slice payload type, values of each length
// in lens filled from a pool of bit patterns that a careless conversion
// would damage: ±0, subnormals, ±Inf, quiet and signalling NaNs with
// payload bits, extremes of every integer width.
func sliceVectors(lens []int) []any {
	f32 := []uint32{0, 0x80000000, 1, 0x807fffff, 0x7f800000, 0xff800000,
		0x7fc00001, 0x7fa00000, 0xffc12345, 0x3f800000, 0xc2f6e979, 0x7f7fffff}
	f64 := []uint64{0, 1 << 63, 1, 0x800fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000,
		0x7ff8000000000001, 0x7ff4000000000000, 0xfff8123456789abc, 0x3ff0000000000000, 0x7fefffffffffffff}
	var out []any
	for _, n := range lens {
		a := make([]float32, n)
		b := make([]float64, n)
		c := make([]int, n)
		d := make([]int32, n)
		e := make([]int64, n)
		g := make([]uint64, n)
		for i := 0; i < n; i++ {
			a[i] = math.Float32frombits(f32[i%len(f32)] ^ uint32(i/len(f32))<<3)
			b[i] = math.Float64frombits(f64[i%len(f64)] ^ uint64(i/len(f64))<<5)
			e[i] = int64(f64[i%len(f64)]) - int64(i)
			c[i] = int(e[i])
			d[i] = int32(f32[i%len(f32)]) + int32(i)
			g[i] = f64[i%len(f64)] + uint64(i)
		}
		out = append(out, a, b, c, d, e, g)
		rows := 1
		if n%3 == 0 {
			rows = 3
		}
		m := tensor.New(rows, n/rows)
		copy(m.Data, a)
		out = append(out, m)
	}
	return out
}

// checkSliceCodec holds the codec to the oracle on every vector: encoding
// appended after 0–7 bytes already in dst (so the body starts at every
// alignment), decoding from a buffer starting at every alignment, and the
// re-encoding of what was decoded.
func checkSliceCodec(t *testing.T) {
	t.Helper()
	for _, v := range sliceVectors([]int{0, 1, 2, 3, 7, 33, 1025}) {
		want := refAppendSlice(nil, v)
		for align := 0; align < 8; align++ {
			prefix := bytes.Repeat([]byte{0xEE}, align)
			got, err := AppendPayload(append([]byte(nil), prefix...), v)
			if err != nil {
				t.Fatalf("%T: %v", v, err)
			}
			if !bytes.Equal(got[:align], prefix) || !bytes.Equal(got[align:], want) {
				t.Fatalf("%T len %d at dst offset %d: encoding differs from the per-element encoder", v, len(want), align)
			}
			// Decode from a buffer whose first byte sits at this alignment.
			backing := make([]byte, align+len(want)+8)
			shift := (8 - int(uintptr(unsafe.Pointer(&backing[0]))&7) + align) & 7
			src := backing[shift : shift+len(want)]
			copy(src, want)
			dec, err := DecodePayload(src)
			if err != nil {
				t.Fatalf("%T: decode: %v", v, err)
			}
			if re := refAppendSlice(nil, dec); !bytes.Equal(re, want) {
				t.Fatalf("%T len %d from src alignment %d: decoded value re-encodes differently", v, len(want), align)
			}
			if re := refAppendSlice(nil, refDecodeSlice(src)); !bytes.Equal(re, want) {
				t.Fatalf("%T: the oracle does not round-trip its own bytes", v)
			}
		}
		if n := PayloadWireSize(v); n != int64(len(want)) {
			t.Fatalf("%T: PayloadWireSize %d, encoded %d", v, n, len(want))
		}
	}
}

// TestBulkCodecMatchesPerElement: the one-copy paths of a little-endian
// host emit and accept exactly the bytes the per-element loops did.
func TestBulkCodecMatchesPerElement(t *testing.T) {
	if !data.HostLittleEndian {
		t.Skip("big-endian host: only the per-element path exists here")
	}
	checkSliceCodec(t)
}

// TestBigEndianFallbackMatchesPerElement forces the path a big-endian host
// takes and holds it to the same vectors, so the fallback cannot rot on the
// little-endian machines everything else is tested on.
func TestBigEndianFallbackMatchesPerElement(t *testing.T) {
	defer func(le bool) { data.HostLittleEndian = le }(data.HostLittleEndian)
	data.HostLittleEndian = false
	checkSliceCodec(t)

	// With the fast path off, a float frame is read like any other frame.
	frame, err := AppendDataFrame(nil, 1, 2, -9, []float32{1, -2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	f, floats, _, n, err := ReadFrameInto(bytes.NewReader(frame), &scratch)
	if err != nil || floats != nil || n != len(frame) || !bytes.Equal(f.Payload, frame[4+wireHeaderLen:]) {
		t.Fatalf("fallback ReadFrameInto: floats=%v n=%d err=%v payload=%x", floats, n, err, f.Payload)
	}
}

// TestReadFrameIntoFloat32Pooled pins the receive fast path: the body of a
// []float32 data frame comes back decoded in a pool-class slice, bit for
// bit, without passing through the scratch buffer; frames that only look
// similar (other kinds, other payload types, a ragged body) do not take it.
func TestReadFrameIntoFloat32Pooled(t *testing.T) {
	if !data.HostLittleEndian {
		t.Skip("the pooled float read is a little-endian path")
	}
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 142468} {
		v := sliceVectors([]int{n})[0].([]float32)
		frame, err := AppendDataFrame(nil, 3, 1, -77, v)
		if err != nil {
			t.Fatal(err)
		}
		scratch := make([]byte, 0, 64)
		f, floats, _, read, err := ReadFrameInto(bytes.NewReader(frame), &scratch)
		if err != nil || read != len(frame) {
			t.Fatalf("n=%d: read %d of %d bytes, err %v", n, read, len(frame), err)
		}
		if floats == nil || f.Payload != nil {
			t.Fatalf("n=%d: float frame did not take the pooled path (floats nil=%v, payload %d bytes)", n, floats == nil, len(f.Payload))
		}
		if f.Kind != KindData || f.Src != 3 || f.Dst != 1 || f.Tag != -77 {
			t.Fatalf("n=%d: header %+v", n, f)
		}
		if !bytes.Equal(refAppendSlice(nil, floats), refAppendSlice(nil, v)) {
			t.Fatalf("n=%d: pooled read changed the values", n)
		}
		if cap(scratch) >= len(frame) && len(frame) > 64 {
			t.Fatalf("n=%d: scratch grew to %d bytes: the body went through it", n, cap(scratch))
		}
		if n >= 1<<minClass && cap(floats)&(cap(floats)-1) != 0 {
			t.Fatalf("n=%d: delivered slice has capacity %d, not a pool class", n, cap(floats))
		}
		PutFloat32s(floats)
	}

	// Not a float body after all: same bytes under another kind and a float
	// payload with a ragged tail.
	ragged, _ := MarshalFrame(WireFrame{Kind: KindData, Payload: []byte{codeFloat32, 1, 2, 3, 4, 5}})
	other, _ := MarshalFrame(WireFrame{Kind: KindDataRef, Payload: []byte{codeFloat32, 1, 2, 3, 4}})
	for _, frame := range [][]byte{ragged, other} {
		var scratch []byte
		f, floats, body, _, err := ReadFrameInto(bytes.NewReader(frame), &scratch)
		if err != nil || floats != nil || body != nil || !bytes.Equal(f.Payload, frame[4+wireHeaderLen:]) {
			t.Fatalf("frame %x: floats=%v body=%x payload=%x err=%v", frame, floats, body, f.Payload, err)
		}
	}
	if _, err := DecodePayload(ragged[4+wireHeaderLen:]); err == nil {
		t.Fatal("a float payload with a ragged tail must not decode")
	}

	// A body cut short is an error, and the pooled slice does not leak out.
	frame, _ := AppendDataFrame(nil, 0, 1, 5, make([]float32, 100))
	var scratch []byte
	if _, floats, _, _, err := ReadFrameInto(bytes.NewReader(frame[:len(frame)-3]), &scratch); err == nil || floats != nil {
		t.Fatalf("truncated float body: floats=%v err=%v", floats, err)
	}
}

// TestReadFrameIntoBytesPooled: the body of a []byte data frame (a sample
// batch) comes back in a pool-class buffer of its own, byte for byte, without
// passing through the scratch buffer, on any host; a truncated body is an
// error. A compressed frame's inflated payload, handed to DecodePayloadOwned,
// is delivered at the start of the pooled buffer it was inflated into.
func TestReadFrameIntoBytesPooled(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4096, 70001} {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(i * 7)
		}
		frame, err := AppendDataFrame(nil, 2, 0, 9, v)
		if err != nil {
			t.Fatal(err)
		}
		scratch := make([]byte, 0, 64)
		f, floats, body, read, err := ReadFrameInto(bytes.NewReader(frame), &scratch)
		if err != nil || read != len(frame) || floats != nil {
			t.Fatalf("n=%d: read %d of %d bytes, floats %v, err %v", n, read, len(frame), floats, err)
		}
		if body == nil || f.Payload != nil || !bytes.Equal(body, v) {
			t.Fatalf("n=%d: body nil=%v equal=%v, payload %d bytes", n, body == nil, bytes.Equal(body, v), len(f.Payload))
		}
		if cap(scratch) > 64 {
			t.Fatalf("n=%d: scratch grew to %d bytes: the body went through it", n, cap(scratch))
		}
		if n >= 1<<minClass && cap(body)&(cap(body)-1) != 0 {
			t.Fatalf("n=%d: delivered buffer has capacity %d, not a pool class", n, cap(body))
		}
		PutBytes(body)
	}
	frame, _ := AppendDataFrame(nil, 0, 1, 5, make([]byte, 100))
	var scratch []byte
	if _, _, body, _, err := ReadFrameInto(bytes.NewReader(frame[:len(frame)-3]), &scratch); err == nil || body != nil {
		t.Fatalf("truncated byte body: body=%v err=%v", body, err)
	}

	raw := GetBytes(1000)
	raw[0] = codeBytes
	for i := 1; i < len(raw); i++ {
		raw[i] = byte(i)
	}
	v, err := DecodePayloadOwned(raw)
	got, ok := v.([]byte)
	if err != nil || !ok || len(got) != 999 || &got[0] != &raw[0] || got[0] != 1 || got[998] != byte(999%256) {
		t.Fatalf("DecodePayloadOwned: %T len %d err %v, or not moved to the buffer's start", v, len(got), err)
	}
}

// TestFloat32PoolClasses pins the pool's shape: lengths inside the class
// range come back with power-of-two capacity and are reused after a Put;
// crumbs, giants and slices the pool never issued are not kept.
func TestFloat32PoolClasses(t *testing.T) {
	for _, n := range []int{1 << minClass, 100, 4096, 4097, 1 << maxFloatClass} {
		f := GetFloat32s(n)
		if len(f) != n || cap(f) < n || cap(f)&(cap(f)-1) != 0 || cap(f) >= 2*n && n > 1<<minClass {
			t.Fatalf("GetFloat32s(%d): len %d cap %d", n, len(f), cap(f))
		}
		PutFloat32s(f)
	}
	for _, n := range []int{0, 1, 1<<minClass - 1, 1<<maxFloatClass + 1} {
		if f := GetFloat32s(n); len(f) != n || cap(f) != n {
			t.Fatalf("GetFloat32s(%d) outside the classes: len %d cap %d, want an exact make", n, len(f), cap(f))
		}
	}
	PutFloat32s(nil)
	PutFloat32s(make([]float32, 100))              // not a class capacity
	PutFloat32s(make([]float32, 2<<maxFloatClass)) // too large to keep
	if raceEnabled {
		return // sync.Pool drops Puts at random under -race
	}
	f := GetFloat32s(5000)
	f[0] = 42
	PutFloat32s(f)
	if g := GetFloat32s(8000); &g[0] != &f[0] {
		t.Error("a released slice was not reused by the next Get of its class")
	}
}

// TestClonePayloadFloat32Independent: the pooled clone is still a clone.
func TestClonePayloadFloat32Independent(t *testing.T) {
	src := make([]float32, 300)
	for i := range src {
		src[i] = float32(i)
	}
	dup := ClonePayload(src).([]float32)
	src[7] = -1
	if len(dup) != len(src) || dup[7] != 7 || &dup[0] == &src[0] {
		t.Fatalf("ClonePayload([]float32) aliases or truncates its input (len %d, dup[7]=%v)", len(dup), dup[7])
	}
}
