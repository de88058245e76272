package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"plshuffle/internal/rng"
)

// TestFP16RoundTripAllPatterns pins the identity fp16FromF32(fp16ToF32(h))
// == h for every one of the 65536 half patterns — the property that makes
// fp16 rounding idempotent and the canonical-form check well defined.
func TestFP16RoundTripAllPatterns(t *testing.T) {
	for h := 0; h <= 0xffff; h++ {
		f := fp16ToF32(uint16(h))
		back := fp16FromF32(f)
		if back != uint16(h) {
			t.Fatalf("fp16 pattern %#04x → %v → %#04x", h, f, back)
		}
		if !fp16Representable(f) {
			t.Fatalf("fp16 pattern %#04x widens to %v which reports not representable", h, f)
		}
	}
}

// TestFP16FromF32Reference cross-checks the RNE narrowing against a
// float64-arithmetic reference on random and adversarial inputs.
func TestFP16FromF32Reference(t *testing.T) {
	cases := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 65504, -65504, 65505, 70000, 1e-8, 6e-8,
		5.960464477539063e-08, // smallest fp16 subnormal
		2.980232238769531e-08, // exactly half of it (tie → 0)
		2.9802326e-08,         // just above the tie
		6.103515625e-05,       // smallest fp16 normal
		float32(math.Inf(1)),  // +Inf
		float32(math.Inf(-1)), // -Inf
		float32(math.NaN()),   // NaN
		1.0009765625,          // 1 + 2^-10 (exact)
		1.00048828125,         // 1 + 2^-11 (tie → even → 1.0)
		1.0004883,             // just above the tie
		2049, 2051, 4100,      // integers losing bits
	}
	r := rng.New(7)
	for i := 0; i < 2000; i++ {
		cases = append(cases, r.NormFloat32()*float32(math.Pow(2, float64(i%40-20))))
	}
	for _, f := range cases {
		got := fp16ToF32(fp16FromF32(f))
		want := refFP16(f)
		if math.IsNaN(float64(want)) {
			if !math.IsNaN(float64(got)) {
				t.Fatalf("fp16(%v): got %v, want NaN", f, got)
			}
			continue
		}
		if got != want {
			t.Fatalf("fp16(%v): got %v (bits %#04x), want %v", f, got, fp16FromF32(f), want)
		}
	}
}

// refFP16 computes round-to-nearest-even fp16 quantization via float64
// arithmetic — slow but obviously correct.
func refFP16(f float32) float32 {
	d := float64(f)
	switch {
	case math.IsNaN(d):
		return float32(math.NaN())
	case math.Abs(d) > 65519: // past the 65504↔∞ rounding boundary (incl. ±Inf)
		if math.Signbit(d) {
			return float32(math.Inf(-1))
		}
		return float32(math.Inf(1))
	case d == 0:
		return f
	}
	// Scale into [1,2), round the mantissa to the available bits, scale back.
	exp := math.Floor(math.Log2(math.Abs(d)))
	if exp < -14 {
		exp = -14 // subnormal range: fixed scale
	}
	ulp := math.Pow(2, exp-10)
	q := math.RoundToEven(d/ulp) * ulp
	return float32(q)
}

func mkSamples(n, d int, seed uint64, quantized bool) []Sample {
	r := rng.New(seed)
	out := make([]Sample, n)
	for i := range out {
		fs := make([]float32, d)
		for j := range fs {
			fs[j] = r.NormFloat32()
		}
		if quantized {
			QuantizeFeaturesFP16(fs)
		}
		out[i] = Sample{ID: i*7 + 3, Label: i % 10, Features: fs, Bytes: 117 << 10}
	}
	return out
}

// TestEncFP32MatchesLegacy pins that EncodingFP32 emits the legacy v1 bytes
// bit for bit.
func TestEncFP32MatchesLegacy(t *testing.T) {
	samples := mkSamples(17, 16, 1, false)
	legacy := EncodeSampleBatch(samples)
	enc := AppendSampleBatchEnc(nil, samples, EncodingFP32)
	if !bytes.Equal(legacy, enc) {
		t.Fatalf("EncodingFP32 bytes differ from legacy encoding")
	}
	if got, want := SampleBatchWireSizeEnc(samples, EncodingFP32), len(legacy); got != want {
		t.Fatalf("SampleBatchWireSizeEnc(fp32) = %d, want %d", got, want)
	}
}

// TestEncFP16ExactRoundTrip: arbitrary (non-representable) features survive
// EncodingFP16Exact bit for bit via the per-sample fp32 fallback.
func TestEncFP16ExactRoundTrip(t *testing.T) {
	samples := mkSamples(23, 16, 2, false)
	samples[5].Features = nil // empty-feature sample must round trip too
	buf := AppendSampleBatchEnc(nil, samples, EncodingFP16Exact)
	if got, want := len(buf), SampleBatchWireSizeEnc(samples, EncodingFP16Exact); got != want {
		t.Fatalf("encoded %d bytes, SampleBatchWireSizeEnc says %d", got, want)
	}
	dec, err := DecodeSampleBatch(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(dec), len(samples))
	}
	for i := range dec {
		if dec[i].ID != samples[i].ID || dec[i].Label != samples[i].Label || dec[i].Bytes != samples[i].Bytes {
			t.Fatalf("sample %d header mismatch: %+v vs %+v", i, dec[i], samples[i])
		}
		if len(dec[i].Features) != len(samples[i].Features) {
			t.Fatalf("sample %d: %d features, want %d", i, len(dec[i].Features), len(samples[i].Features))
		}
		for j := range dec[i].Features {
			if math.Float32bits(dec[i].Features[j]) != math.Float32bits(samples[i].Features[j]) {
				t.Fatalf("sample %d feature %d: %v != %v (fp16exact must be bitwise lossless)",
					i, j, dec[i].Features[j], samples[i].Features[j])
			}
		}
	}
}

// TestEncFP16ExactCompactOnQuantizedData: pre-quantized features ship as
// fp16 entries, cutting the batch well below half of the v1 size, and still
// round trip bit for bit.
func TestEncFP16ExactCompactOnQuantizedData(t *testing.T) {
	samples := mkSamples(64, 16, 3, true)
	v1 := SampleBatchWireSize(samples)
	buf := AppendSampleBatchEnc(nil, samples, EncodingFP16Exact)
	if len(buf)*2 > v1 {
		t.Fatalf("fp16exact on quantized data: %d bytes vs v1 %d — expected >2x reduction", len(buf), v1)
	}
	dec, err := DecodeSampleBatch(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range dec {
		for j := range dec[i].Features {
			if math.Float32bits(dec[i].Features[j]) != math.Float32bits(samples[i].Features[j]) {
				t.Fatalf("sample %d feature %d not exact", i, j)
			}
		}
	}
}

// TestEncFP16Idempotent: fp16 rounding applied twice equals once — what makes
// a QuantizeFeaturesFP16-preconditioned dataset travel compact AND bit-exact
// under EncodingFP16Exact, however often a sample is re-sent.
func TestEncFP16Idempotent(t *testing.T) {
	samples := mkSamples(8, 16, 4, false)
	for _, s := range samples {
		QuantizeFeaturesFP16(s.Features)
	}
	once, err := DecodeSampleBatch(AppendSampleBatchEnc(nil, samples, EncodingFP16Exact))
	if err != nil {
		t.Fatalf("first decode: %v", err)
	}
	for i, s := range once {
		QuantizeFeaturesFP16(s.Features)
		for j := range s.Features {
			if math.Float32bits(s.Features[j]) != math.Float32bits(samples[i].Features[j]) {
				t.Fatalf("sample %d feature %d: fp16 rounding not idempotent", i, j)
			}
		}
	}
}

// TestV2DecoderRejectsNonCanonical drives the strict decoder with invalid
// and non-canonical inputs.
func TestV2DecoderRejectsNonCanonical(t *testing.T) {
	quant := mkSamples(1, 4, 5, true)
	valid := AppendSampleBatchEnc(nil, quant, EncodingFP16Exact)
	cases := map[string][]byte{
		"truncated": valid[:len(valid)-1],
		"trailing":  append(append([]byte{}, valid...), 0),
		"bad tag":   func() []byte { b := append([]byte{}, valid...); b[4] = 2; return b }(),
		"count exceeds": func() []byte {
			b := append([]byte{}, valid...)
			b[0], b[1] = 0xff, 0xff // huge count with bit31 still set in b[3]
			return b
		}(),
	}
	// Non-canonical fp32 entry: representable features shipped as fp32.
	fp32Entry := AppendSampleBatchEnc(nil, quant, EncodingFP32)
	_ = fp32Entry // v1 bytes are fine; build the v2 non-canonical form by hand:
	var b []byte
	b = appendU32(b, uint32(1)|batchV2Flag)
	b = append(b, entryFP32)
	b = appendUvarintBytes(b, uint64(quant[0].ID))
	b = appendUvarintBytes(b, uint64(quant[0].Label))
	b = appendUvarintBytes(b, uint64(quant[0].Bytes))
	b = appendUvarintBytes(b, uint64(len(quant[0].Features)))
	for _, f := range quant[0].Features {
		b = appendU32(b, math.Float32bits(f))
	}
	cases["non-canonical fp32 entry"] = b
	// Non-minimal varint: re-encode ID with a padded two-byte varint.
	nm := append([]byte{}, valid[:5]...)
	nm = append(nm, byte(quant[0].ID)|0x80, 0) // padded form of a small ID
	nm = append(nm, valid[6:]...)
	cases["non-minimal varint"] = nm

	for name, buf := range cases {
		if _, err := DecodeSampleBatch(buf); err == nil {
			t.Errorf("%s: decoder accepted invalid input", name)
		}
	}
	if _, err := DecodeSampleBatch(valid); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendUvarintBytes(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// TestParseEncoding covers the flag spellings.
func TestParseEncoding(t *testing.T) {
	for s, want := range map[string]Encoding{"": EncodingFP32, "fp32": EncodingFP32, "fp16exact": EncodingFP16Exact} {
		got, err := ParseEncoding(s)
		if err != nil || got != want {
			t.Errorf("ParseEncoding(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"zstd", "fp16"} { // "fp16" was the lossy mode's spelling
		if _, err := ParseEncoding(s); err == nil {
			t.Errorf("ParseEncoding accepted unknown spelling %q", s)
		}
	}
}

// --- fast paths vs the oracle ---

// seedAppendSampleBatchEnc is the v2 encoder as it stood before the fused
// pass: classify each sample with fp16FromF32+fp16ToF32 on every feature,
// then convert again. Kept verbatim as the byte-for-byte reference for
// AppendSampleBatchEnc.
func seedAppendSampleBatchEnc(dst []byte, samples []Sample) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(samples))|batchV2Flag)
	for _, s := range samples {
		tag := entryFP16
		for _, f := range s.Features {
			if !fp16Representable(f) {
				tag = entryFP32
				break
			}
		}
		dst = append(dst, tag)
		dst = binary.AppendUvarint(dst, uint64(s.ID))
		dst = binary.AppendUvarint(dst, uint64(s.Label))
		dst = binary.AppendUvarint(dst, uint64(s.Bytes))
		dst = binary.AppendUvarint(dst, uint64(len(s.Features)))
		if tag == entryFP16 {
			for _, f := range s.Features {
				dst = binary.LittleEndian.AppendUint16(dst, fp16FromF32(f))
			}
		} else {
			for _, f := range s.Features {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
			}
		}
	}
	return dst
}

// checkAgainstSeedEncoder encodes samples with the fused encoder and the
// seed one, compares the bytes and the size function, and decodes them back
// to the input bits.
func checkAgainstSeedEncoder(t *testing.T, what string, samples []Sample) {
	t.Helper()
	want := seedAppendSampleBatchEnc(nil, samples)
	got := AppendSampleBatchEnc([]byte{0xee}, samples, EncodingFP16Exact)
	if got[0] != 0xee || !bytes.Equal(got[1:], want) {
		t.Fatalf("%s: fused encoder bytes differ from the seed encoder's", what)
	}
	if n := SampleBatchWireSizeEnc(samples, EncodingFP16Exact); n != len(want) {
		t.Fatalf("%s: SampleBatchWireSizeEnc = %d, encoded %d", what, n, len(want))
	}
	dec, err := DecodeSampleBatch(want)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	for i, s := range samples {
		for j, f := range s.Features {
			if math.Float32bits(dec[i].Features[j]) != math.Float32bits(f) {
				t.Fatalf("%s: sample %d feature %d: %#08x decoded as %#08x", what, i, j,
					math.Float32bits(f), math.Float32bits(dec[i].Features[j]))
			}
		}
	}
}

func bitsToFeatures(bs []uint32) []float32 {
	fs := make([]float32, len(bs))
	for i, b := range bs {
		fs[i] = math.Float32frombits(b)
	}
	return fs
}

// TestFusedEncoderMatchesSeed drives the bit-test fast path, its fallback to
// the oracle and the rollback to an fp32 entry over every float32 class.
func TestFusedEncoderMatchesSeed(t *testing.T) {
	// Every half, widened: one sample of all 65536 (all representable, so one
	// fp16 entry holding ±0, subnormals, normals, ±Inf and every NaN payload),
	// and each as a sample of its own.
	halves := make([]uint32, 1<<16)
	for h := range halves {
		halves[h] = math.Float32bits(fp16ToF32(uint16(h)))
	}
	checkAgainstSeedEncoder(t, "all halves in one sample", []Sample{{ID: 1, Features: bitsToFeatures(halves)}})
	single := make([]Sample, len(halves))
	for h, b := range halves {
		single[h] = Sample{ID: h, Label: h % 7, Bytes: int64(h), Features: []float32{math.Float32frombits(b)}}
	}
	checkAgainstSeedEncoder(t, "each half alone", single)

	// Every float32 exponent × both signs × the mantissas where behaviour
	// changes: 0, the lowest bit, the last bit fp16 keeps (0x2000), the
	// rounding tie 0x1000 and its neighbours, all-ones — each a sample of its
	// own, so every one that is not representable takes the rollback.
	mantissas := []uint32{0, 1, 0x0fff, 0x1000, 0x1001, 0x1fff, 0x2000, 0x2001, 0x3000,
		0x400000, 0x401000, 0x7fe000, 0x7ff000, 0x7fffff}
	var edges []Sample
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp < 256; exp++ {
			for _, m := range mantissas {
				b := sign<<31 | exp<<23 | m
				edges = append(edges, Sample{ID: len(edges), Features: []float32{1, math.Float32frombits(b)}})
			}
		}
	}
	checkAgainstSeedEncoder(t, "exponent × edge mantissa", edges)

	// A strided sweep of all 2³² patterns, in samples of 64 features.
	const stride = 65521 // prime: visits every low-bit pattern and exponent
	var sweep []Sample
	fs := make([]uint32, 0, 64)
	for b := uint64(0); b < 1<<32; b += stride {
		if fs = append(fs, uint32(b)); len(fs) == cap(fs) {
			sweep = append(sweep, Sample{ID: len(sweep), Features: bitsToFeatures(fs)})
			fs = fs[:0]
		}
	}
	checkAgainstSeedEncoder(t, "strided sweep", sweep)

	// Mixed batches whose inexact feature comes last (the rollback discards a
	// whole speculatively narrowed sample), first, or not at all.
	grid := make([]float32, 2048)
	for i := range grid {
		grid[i] = float32(i%97) / 2
	}
	last := append(append([]float32(nil), grid...), 0.1)
	first := append([]float32{0.1}, grid...)
	checkAgainstSeedEncoder(t, "rollback", []Sample{
		{ID: 1, Features: grid}, {ID: 2, Features: last}, {ID: 3, Features: grid},
		{ID: 4, Features: first}, {ID: 5, Features: nil}, {ID: 6, Features: last},
	})
}

// TestWidenFastPathMatchesOracle decodes every half through the batch decoder
// and compares with fp16ToF32.
func TestWidenFastPathMatchesOracle(t *testing.T) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, 1|batchV2Flag)
	buf = append(buf, entryFP16, 0, 0, 0)
	buf = binary.AppendUvarint(buf, 1<<16)
	for h := 0; h < 1<<16; h++ {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(h))
	}
	dec, err := DecodeSampleBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	for h, f := range dec[0].Features {
		if want := fp16ToF32(uint16(h)); math.Float32bits(f) != math.Float32bits(want) {
			t.Fatalf("half %#04x widened to %#08x, oracle says %#08x", h, math.Float32bits(f), math.Float32bits(want))
		}
	}
}

// --- benchmarks shaped like the lean exchange ---

// gridBatch is one exchange frame of the lean workload: 2048-feature samples
// on a grid of halves, all fp16-representable.
func gridBatch(n int) []Sample {
	r := rng.New(11)
	out := make([]Sample, n)
	for i := range out {
		fs := make([]float32, 2048)
		for j := range fs {
			fs[j] = float32(math.Round(float64(r.NormFloat32()*4)*2) / 2)
		}
		out[i] = Sample{ID: i * 13, Label: i % 16, Features: fs, Bytes: 8192}
	}
	return out
}

func BenchmarkAppendSampleBatchFP16Exact(b *testing.B) {
	batch := gridBatch(21)
	buf := AppendSampleBatchEnc(nil, batch, EncodingFP16Exact)
	b.SetBytes(int64(len(batch)) * 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendSampleBatchEnc(buf[:0], batch, EncodingFP16Exact)
	}
}

func BenchmarkDecodeSampleBatchV2(b *testing.B) {
	batch := gridBatch(21)
	buf := AppendSampleBatchEnc(nil, batch, EncodingFP16Exact)
	var dst []Sample
	b.SetBytes(int64(len(batch)) * 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = DecodeSampleBatchInto(dst[:0], buf); err != nil {
			b.Fatal(err)
		}
	}
}
