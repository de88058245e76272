package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// refAppendEncode is Sample.AppendEncode as it stood before the one-copy
// path: every feature its own AppendUint32. The oracle for both paths.
func refAppendEncode(dst []byte, s Sample) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.ID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Label))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Bytes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Features)))
	for _, f := range s.Features {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

// featureVectors are samples of awkward lengths whose features include the
// bit patterns a copy must not touch (NaN payloads, -0, subnormals) and are
// not fp16-representable, so the v2 encoder keeps them in fp32 entries.
func featureVectors() []Sample {
	var out []Sample
	for _, n := range []int{0, 1, 2, 3, 7, 33, 1025} {
		fs := make([]float32, n)
		for i := range fs {
			fs[i] = math.Float32frombits(uint32(i+1)*0x9e3779b1 ^ 0x7fc00001)
		}
		if n > 2 {
			fs[0], fs[1], fs[2] = math.Float32frombits(0x7fc12345), float32(math.Copysign(0, -1)), math.Float32frombits(1)
		}
		out = append(out, Sample{ID: 1000 + n, Label: n % 10, Features: fs, Bytes: 117 << 10})
	}
	return out
}

func sameSamples(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Label != b[i].Label || a[i].Bytes != b[i].Bytes || len(a[i].Features) != len(b[i].Features) {
			return false
		}
		for j := range a[i].Features {
			if math.Float32bits(a[i].Features[j]) != math.Float32bits(b[i].Features[j]) {
				return false
			}
		}
	}
	return true
}

// checkFeatureCodec holds whichever path HostLittleEndian selects to the
// per-element oracle: v1 bytes appended after 0–7 bytes already in dst (so
// the features land at every alignment), v1 and v2 decoded from a buffer
// starting at every alignment. It returns the v2 bytes, which have no
// independent oracle here, for the caller to compare across paths.
func checkFeatureCodec(t *testing.T) []byte {
	t.Helper()
	samples := featureVectors()
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(samples)))
	for _, s := range samples {
		want = refAppendEncode(want, s)
	}
	v2 := AppendSampleBatchEnc(nil, samples, EncodingFP16Exact)
	feats := 0
	for _, s := range samples {
		feats += len(s.Features)
	}
	if len(v2) < 4*feats {
		t.Fatalf("v2 batch is %d bytes for %d features: the vectors no longer take fp32 entries", len(v2), feats)
	}
	for align := 0; align < 8; align++ {
		prefix := bytes.Repeat([]byte{0xEE}, align)
		got := AppendSampleBatch(append([]byte(nil), prefix...), samples)
		if !bytes.Equal(got[:align], prefix) || !bytes.Equal(got[align:], want) {
			t.Fatalf("v1 at dst offset %d: encoding differs from the per-element encoder", align)
		}
		for name, enc := range map[string][]byte{"v1": want, "v2": v2} {
			backing := make([]byte, align+len(enc)+8)
			shift := (8 - int(uintptr(unsafe.Pointer(&backing[0]))&7) + align) & 7
			src := backing[shift : shift+len(enc)]
			copy(src, enc)
			dec, err := DecodeSampleBatch(src)
			if err != nil {
				t.Fatalf("%s from src alignment %d: %v", name, align, err)
			}
			if !sameSamples(dec, samples) {
				t.Fatalf("%s from src alignment %d: decoded samples differ", name, align)
			}
		}
	}
	for _, s := range samples {
		if got := s.Encode(); !bytes.Equal(got, refAppendEncode(nil, s)) || len(got) != s.WireSize() {
			t.Fatalf("Encode of %d features differs from the per-element encoder", len(s.Features))
		}
	}
	return v2
}

// TestFeatureCodecBothByteOrders: the one-copy feature paths of a
// little-endian host and the per-element loops a big-endian host runs —
// forced here, so they cannot rot on the machines everything is tested on —
// emit and accept the same bytes.
func TestFeatureCodecBothByteOrders(t *testing.T) {
	host := checkFeatureCodec(t)
	defer func(le bool) { HostLittleEndian = le }(HostLittleEndian)
	HostLittleEndian = false
	if forced := checkFeatureCodec(t); !bytes.Equal(host, forced) {
		t.Fatal("v2 encoding differs between the one-copy path and the per-element loops")
	}
}
