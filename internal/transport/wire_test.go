package transport

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/tensor"
)

func TestFrameMarshalUnmarshal(t *testing.T) {
	frames := []WireFrame{
		{Kind: KindData, Src: 0, Dst: 3, Tag: 17, Payload: []byte{1, 2, 3}},
		{Kind: KindHello, Src: 2, Dst: 0, Payload: []byte("10.0.0.1:4242")},
		{Kind: KindTable, Src: 0, Dst: -1, Payload: EncodeAddrTable([]string{"", "x:1"})},
		{Kind: KindBye, Src: 1, Dst: 2, Tag: -9_000_000_000}, // tags exceed int32
		{Kind: KindData, Src: 5, Dst: 6, Tag: 0},             // empty payload
	}
	for _, want := range frames {
		buf, err := MarshalFrame(want)
		if err != nil {
			t.Fatalf("marshal %+v: %v", want, err)
		}
		got, err := UnmarshalFrame(buf)
		if err != nil {
			t.Fatalf("unmarshal %+v: %v", want, err)
		}
		if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst || got.Tag != want.Tag || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		r, n, err := ReadFrame(bytes.NewReader(buf))
		if err != nil || n != len(buf) || r.Tag != want.Tag {
			t.Fatalf("ReadFrame: n=%d err=%v frame=%+v", n, err, r)
		}
	}
}

func TestFrameMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"short prefix":   {1, 0},
		"tiny body":      {3, 0, 0, 0, 9, 9, 9},
		"hostile length": {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"length mismatch": func() []byte {
			buf, _ := MarshalFrame(WireFrame{Kind: KindData})
			return buf[:len(buf)-2]
		}(),
		"unknown kind": func() []byte {
			buf, _ := MarshalFrame(WireFrame{Kind: KindData})
			buf[4] = 200
			return buf
		}(),
	}
	for name, buf := range cases {
		if _, err := UnmarshalFrame(buf); err == nil {
			t.Errorf("%s: UnmarshalFrame accepted malformed input", name)
		}
	}
	// ReadFrame on a truncated stream must report an error, not block or panic.
	full, _ := MarshalFrame(WireFrame{Kind: KindData, Payload: []byte{1, 2, 3, 4}})
	if _, _, err := ReadFrame(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Error("ReadFrame accepted a truncated stream")
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("ReadFrame on empty stream: %v, want io.EOF", err)
	}
	if _, err := MarshalFrame(WireFrame{Payload: make([]byte, MaxFramePayload+1)}); err == nil {
		t.Error("MarshalFrame accepted an oversized payload")
	}
}

func TestAddrTableRoundTrip(t *testing.T) {
	tables := [][]string{
		{},
		{"127.0.0.1:80"},
		{"", "a:1", "host.example:65535", ""},
	}
	for _, want := range tables {
		got, err := DecodeAddrTable(EncodeAddrTable(want))
		if err != nil {
			t.Fatalf("%v: %v", want, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round trip %v -> %v", want, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("entry %d: %q != %q", i, got[i], want[i])
			}
		}
	}
	for name, buf := range map[string][]byte{
		"truncated header": {1, 0},
		"truncated entry":  {1, 0, 0, 0, 5, 0, 0, 0, 'a'},
		"hostile count":    {0xff, 0xff, 0xff, 0xff},
	} {
		if _, err := DecodeAddrTable(buf); err == nil {
			t.Errorf("%s: DecodeAddrTable accepted malformed input", name)
		}
	}
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	mat := tensor.New(3, 2)
	for i := range mat.Data {
		mat.Data[i] = float32(i) - 2.5
	}
	values := []any{
		nil,
		[]byte{0, 255, 3},
		[]float32{1.5, -2, 0},
		[]float64{3.25},
		[]int{-4, 1 << 50},
		[]int32{9},
		[]int64{-1},
		[]uint64{12345},
		"shuffle",
		-77,
		2.5,
		true,
		false,
		mat,
	}
	for _, want := range values {
		buf, err := EncodePayload(want)
		if err != nil {
			t.Fatalf("encode %T: %v", want, err)
		}
		got, err := DecodePayload(buf)
		if err != nil {
			t.Fatalf("decode %T: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %T: got %#v want %#v", want, got, want)
		}
		if est := PayloadWireSize(want); est != int64(len(buf)) {
			t.Fatalf("PayloadWireSize(%T) = %d, encoded length %d", want, est, len(buf))
		}
	}
	if _, err := EncodePayload(struct{ A int }{}); err == nil {
		t.Fatal("EncodePayload accepted a non-encodable type")
	}
	// A single sample is no payload any more: samples travel as []byte
	// batches (data.AppendSampleBatchEnc).
	if _, err := EncodePayload(data.Sample{ID: 3, Label: 1, Features: []float32{0.25}, Bytes: 42}); err == nil {
		t.Fatal("EncodePayload accepted a data.Sample, whose code 12 is retired")
	}
	for code, payload := range map[int][]byte{12: retiredCode12Payload, 15: retiredCode15Payload} {
		if v, err := DecodePayload(payload); err == nil {
			t.Fatalf("DecodePayload accepted retired payload code %d as %T", code, v)
		}
		if v, err := DecodePayloadOwned(append([]byte(nil), payload...)); err == nil {
			t.Fatalf("DecodePayloadOwned accepted retired payload code %d as %T", code, v)
		}
	}
}

// retiredCode12Payload and retiredCode15Payload are well-formed payloads of
// the retired codes (a code byte plus the body it used to carry: one encoded
// data.Sample, and code 15's fixed 25 bytes): a frame from a peer that still
// sends one must be refused with an error, never a panic.
var (
	retiredCode12Payload = append([]byte{12}, data.Sample{ID: 3, Label: 1, Features: []float32{0.25}, Bytes: 42}.Encode()...)
	retiredCode15Payload = append([]byte{15}, make([]byte, 25)...)
)
