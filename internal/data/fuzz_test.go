package data

import (
	"bytes"
	"testing"
)

// FuzzDecodeSample hardens the wire format against malformed exchange
// payloads: decoding must never panic, and any buffer it accepts must
// round-trip back to identical bytes.
func FuzzDecodeSample(f *testing.F) {
	f.Add(Sample{ID: 1, Label: 2, Features: []float32{1, 2, 3}, Bytes: 99}.Encode())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(make([]byte, 28))
	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := DecodeSample(buf)
		if err != nil {
			return
		}
		if !bytes.Equal(s.Encode(), buf) {
			t.Fatalf("accepted buffer does not round-trip (%d bytes)", len(buf))
		}
	})
}

// FuzzDecodeSampleBatch hardens the coalesced-frame format the exchange
// scheduler ships: malformed batches must never panic, and any buffer the
// decoder accepts must re-marshal byte-identically — through
// EncodeSampleBatch for v1 input, through the canonical EncodingFP16Exact
// encoder for v2 input (bit 31 of the count word). Both decoders are
// strictly canonical, which is what makes the wire accounting in
// WireTraffic exact.
func FuzzDecodeSampleBatch(f *testing.F) {
	f.Add(EncodeSampleBatch(nil))
	f.Add(EncodeSampleBatch([]Sample{{ID: 7, Label: 1, Features: []float32{0.5}, Bytes: 10}}))
	f.Add(EncodeSampleBatch([]Sample{
		{ID: 1, Label: 0, Features: []float32{1, 2}, Bytes: 4},
		{ID: 2, Label: 3, Features: nil, Bytes: 0},
		{ID: 3, Label: 1, Features: []float32{-1}, Bytes: 8},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                  // hostile count
	f.Add([]byte{1, 0, 0, 0})                              // count 1, no sample bytes
	f.Add(append([]byte{2, 0, 0, 0}, make([]byte, 28)...)) // count 2, one header
	// v2 seeds: compact fp16 entries, mixed fp32 fallback, empty batch.
	f.Add(AppendSampleBatchEnc(nil, nil, EncodingFP16Exact))
	f.Add(AppendSampleBatchEnc(nil, []Sample{{ID: 7, Label: 1, Features: []float32{0.5}, Bytes: 10}}, EncodingFP16Exact))
	f.Add(AppendSampleBatchEnc(nil, []Sample{
		{ID: 1, Label: 0, Features: []float32{0.25, -2}, Bytes: 4},
		{ID: 2, Label: 3, Features: nil, Bytes: 0},
		{ID: 3, Label: 1, Features: []float32{1e-30}, Bytes: 8}, // not fp16-representable → fp32 entry
	}, EncodingFP16Exact))
	f.Fuzz(func(t *testing.T, buf []byte) {
		samples, err := DecodeSampleBatch(buf)
		if err != nil {
			return
		}
		enc := EncodingFP32
		if len(buf) >= 4 && buf[3]&0x80 != 0 {
			enc = EncodingFP16Exact
		}
		if !bytes.Equal(AppendSampleBatchEnc(nil, samples, enc), buf) {
			t.Fatalf("accepted batch of %d samples does not re-marshal identically (%d bytes)", len(samples), len(buf))
		}
		if got := SampleBatchWireSizeEnc(samples, enc); got != len(buf) {
			t.Fatalf("SampleBatchWireSizeEnc %d != accepted buffer length %d", got, len(buf))
		}
		// The append-into variant must agree with the allocating one and
		// leave the destination prefix untouched.
		prefix := []Sample{{ID: -1}}
		out, err := DecodeSampleBatchInto(prefix, buf)
		if err != nil {
			t.Fatalf("DecodeSampleBatchInto rejected a buffer DecodeSampleBatch accepted: %v", err)
		}
		if len(out) != 1+len(samples) || out[0].ID != -1 {
			t.Fatalf("DecodeSampleBatchInto mangled the destination prefix")
		}
		for i, s := range samples {
			if !bytes.Equal(out[i+1].Encode(), s.Encode()) {
				t.Fatalf("sample %d differs between decode variants", i)
			}
		}
	})
}
