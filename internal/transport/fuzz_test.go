package transport

import (
	"bytes"
	"math"
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/transport/wirecomp"
)

// FuzzFrameRoundTrip pins the wire framing invariants: any buffer that
// UnmarshalFrame accepts must re-marshal to the identical bytes (the
// encoding is canonical), ReadFrame must agree with UnmarshalFrame, and
// malformed input must produce an error — never a panic, never a giant
// allocation.
func FuzzFrameRoundTrip(f *testing.F) {
	seed := func(w WireFrame) {
		buf, err := MarshalFrame(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(WireFrame{Kind: KindData, Src: 0, Dst: 1, Tag: 7, Payload: []byte{codeInts, 1, 0, 0, 0, 0, 0, 0, 0}})
	seed(WireFrame{Kind: KindHello, Src: 3, Dst: 0, Payload: []byte("127.0.0.1:9999")})
	seed(WireFrame{Kind: KindTable, Src: 0, Dst: -1, Payload: EncodeAddrTable([]string{"a:1", "b:2"})})
	seed(WireFrame{Kind: KindPing, Src: 2, Dst: 5, Tag: -12345})
	seed(WireFrame{Kind: 3, Src: 2, Dst: 5})                 // retired kind: must be rejected
	seed(WireFrame{Kind: KindHello, Src: 1, Dst: 2, Tag: 7}) // a data socket's hello, dial number 7
	if batch, err := EncodePayload(data.EncodeSampleBatch([]data.Sample{
		{ID: 1, Label: 0, Features: []float32{1, 2}, Bytes: 4},
		{ID: 2, Label: 1, Features: []float32{-3}, Bytes: 8},
	})); err == nil {
		seed(WireFrame{Kind: KindData, Src: 1, Dst: 2, Tag: 99, Payload: batch})
		// A compressed data frame as the TCP backend builds it: the payload
		// section of the KindData frame, wirecomp-encoded under KindDataZ.
		seed(WireFrame{Kind: KindDataZ, Src: 1, Dst: 2, Tag: 99,
			Payload: wirecomp.Encode(nil, batch)})
	}
	if refs, err := EncodePayload(SampleRefs{3, 7, 4096}); err == nil {
		seed(WireFrame{Kind: KindDataRef, Src: 2, Dst: 0, Tag: 41, Payload: refs})
	}
	if grad, err := EncodePayload(bigFloats()); err == nil {
		// A gradient chunk as the ring sends it: the frame the read loop takes
		// straight into a pooled []float32.
		seed(WireFrame{Kind: KindData, Src: 3, Dst: 0, Tag: -(2 + 5<<20 + 1), Payload: grad})
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile length prefix
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, buf []byte) {
		w, err := UnmarshalFrame(buf)
		if err != nil {
			return // malformed input must error, which it did — done
		}
		re, err := MarshalFrame(w)
		if err != nil {
			t.Fatalf("decoded frame does not re-marshal: %v", err)
		}
		if !bytes.Equal(re, buf) {
			t.Fatalf("frame round trip not canonical:\n in  %x\n out %x", buf, re)
		}
		// ReadFrame over the same bytes must consume exactly the buffer and
		// agree on every field.
		r, n, err := ReadFrame(bytes.NewReader(buf))
		if err != nil || n != len(buf) {
			t.Fatalf("ReadFrame disagrees with UnmarshalFrame: n=%d err=%v", n, err)
		}
		if r.Kind != w.Kind || r.Src != w.Src || r.Dst != w.Dst || r.Tag != w.Tag || !bytes.Equal(r.Payload, w.Payload) {
			t.Fatalf("ReadFrame decoded %+v, UnmarshalFrame %+v", r, w)
		}
		// ReadFrameInto (the pooled read path) must agree as well, including
		// when its scratch buffer carries stale bytes from a previous frame.
		scratch := bytes.Repeat([]byte{0xAA}, 16)
		ri, floats, body, n, err := ReadFrameInto(bytes.NewReader(buf), &scratch)
		if err != nil || n != len(buf) {
			t.Fatalf("ReadFrameInto disagrees with ReadFrame: n=%d err=%v", n, err)
		}
		// A float32 or []byte body read straight into a pooled slice: what it
		// holds must encode back to the payload bytes that were on the wire.
		if floats != nil {
			if ri.Payload, err = EncodePayload(floats); err != nil {
				t.Fatal(err)
			}
			PutFloat32s(floats)
		}
		if body != nil {
			if ri.Payload, err = EncodePayload(body); err != nil {
				t.Fatal(err)
			}
			PutBytes(body)
		}
		if ri.Kind != w.Kind || ri.Src != w.Src || ri.Dst != w.Dst || ri.Tag != w.Tag || !bytes.Equal(ri.Payload, w.Payload) {
			t.Fatalf("ReadFrameInto decoded %+v, UnmarshalFrame %+v", ri, w)
		}
	})
}

// bigFloats is a float32 body above 1 MiB whose words run through every
// exponent, NaN payloads included: large enough for the bulk copy and the
// pooled read to be the paths that carry it.
func bigFloats() []float32 {
	out := make([]float32, 300_000)
	for i := range out {
		out[i] = math.Float32frombits(uint32(i) * 2654435761)
	}
	return out
}

// FuzzPayloadRoundTrip pins the payload codec: any buffer DecodePayload
// accepts re-encodes to the identical bytes (bit-preserving even for NaN
// floats), and malformed buffers error without panicking.
func FuzzPayloadRoundTrip(f *testing.F) {
	seed := func(v any) {
		buf, err := EncodePayload(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(nil)
	seed([]byte{1, 2, 3})
	seed([]float32{0.5, float32(math.NaN()), -3})
	seed(bigFloats())
	seed([]float64{math.Inf(1), 2.25})
	seed([]int{-1, 0, 1 << 40})
	seed([]int64{1 << 62})
	seed(SampleRefs{})
	seed(SampleRefs{0})
	seed(SampleRefs{5, 6, 1 << 40})
	seed(SampleRefs{1 << 62, 1<<62 + 1})
	f.Add([]byte{})
	// The retired codes: each must be refused, hostile matrix dims included.
	f.Add([]byte{13, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f})
	for _, p := range retiredPayloads {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		v, err := DecodePayload(buf)
		// The buffer-owning variant accepts the same buffers and decodes them
		// to the same value (it only skips the copy of a []byte payload).
		owned, oerr := DecodePayloadOwned(append([]byte(nil), buf...))
		if (err == nil) != (oerr == nil) {
			t.Fatalf("DecodePayload err %v, DecodePayloadOwned err %v", err, oerr)
		}
		if err != nil {
			return
		}
		re, err := EncodePayload(v)
		if err != nil {
			t.Fatalf("decoded payload %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(re, buf) {
			t.Fatalf("payload round trip not canonical for %T:\n in  %x\n out %x", v, buf, re)
		}
		if reOwned, err := EncodePayload(owned); err != nil || !bytes.Equal(reOwned, buf) {
			t.Fatalf("DecodePayloadOwned decoded %T differently from DecodePayload (re-encode err %v)", owned, err)
		}
	})
}
