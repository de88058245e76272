package wirecomp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"plshuffle/internal/data"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Encode(nil, src)
	if old, err := decodeSeed(nil, enc); err != nil || !bytes.Equal(old, src) {
		t.Fatalf("the seed decoder does not read this block (err %v): the wire format changed", err)
	}
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %d bytes exceed MaxEncodedLen(%d)=%d", len(enc), len(src), MaxEncodedLen(len(src)))
	}
	if n, err := DecodedLen(enc); err != nil || n != len(src) {
		t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(src))
	}
	dec, err := Decode(nil, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(dec), len(src))
	}
	return enc
}

func TestRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abc"),
		[]byte("abcd"),
		bytes.Repeat([]byte{0}, 10000),
		bytes.Repeat([]byte("abcdefgh"), 500),
		[]byte("the quick brown fox jumps over the lazy dog, the quick brown fox"),
	}
	for i, src := range cases {
		enc := roundTrip(t, src)
		if len(src) >= 64 && isRepetitive(src) && len(enc) >= len(src) {
			t.Errorf("case %d: repetitive input did not compress: %d -> %d", i, len(src), len(enc))
		}
	}
}

func isRepetitive(src []byte) bool {
	return bytes.Count(src, src[:1]) > len(src)/4
}

// TestSampleBatchLikeInput mirrors the real workload: fixed-size headers
// with small varying fields followed by low-entropy float blocks must
// compress meaningfully (this is the shape of coalesced exchange frames).
func TestSampleBatchLikeInput(t *testing.T) {
	var src []byte
	for i := 0; i < 64; i++ {
		hdr := make([]byte, 28)
		hdr[0] = byte(i)
		src = append(src, hdr...)
		for j := 0; j < 16; j++ {
			src = append(src, byte(j), 0, 0x80, 0x3f) // fp32 patterns with shared suffixes
		}
	}
	enc := roundTrip(t, src)
	if len(enc)*2 > len(src) {
		t.Fatalf("batch-shaped input compressed %d -> %d, want at least 2x", len(src), len(enc))
	}
}

func TestRandomRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(4096)
		src := make([]byte, n)
		switch i % 3 {
		case 0: // incompressible
			rng.Read(src)
		case 1: // low-entropy alphabet
			for j := range src {
				src[j] = byte(rng.Intn(4))
			}
		case 2: // repeated chunk
			chunk := make([]byte, 1+rng.Intn(64))
			rng.Read(chunk)
			for j := range src {
				src[j] = chunk[j%len(chunk)]
			}
		}
		roundTrip(t, src)
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte("prefix")
	src := bytes.Repeat([]byte("xy"), 100)
	enc := Encode(append([]byte(nil), prefix...), src)
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("Encode clobbered dst prefix")
	}
	dec, err := Decode(append([]byte(nil), prefix...), enc[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dec, prefix) || !bytes.Equal(dec[len(prefix):], src) {
		t.Fatal("Decode clobbered dst prefix or payload")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty input":        {},
		"huge length prefix": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"truncated literal":  {4, 0x06, 'a'},
		"offset beyond out":  {4, 0x01, 0x05},
		"zero offset":        {8, 0x06, 'a', 'b', 'c', 'd', 0x01, 0x00},
		"short output":       {9, 0x06, 'a', 'b', 'c', 'd'},
		"long output":        {2, 0x06, 'a', 'b', 'c', 'd'},
		"truncated offset":   {8, 0x06, 'a', 'b', 'c', 'd', 0x01},
	}
	for name, src := range cases {
		if _, err := Decode(nil, src); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

// TestDeterministic pins that Encode is a pure function of the input —
// the dedup protocol's lockstep accounting relies on both sides computing
// identical sizes.
func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 8192)
	for j := range src {
		src[j] = byte(rng.Intn(7))
	}
	a := Encode(nil, src)
	b := Encode(make([]byte, 0, 16), src)
	if !bytes.Equal(a, b) {
		t.Fatal("Encode not deterministic across dst capacities")
	}
}

// largeSeeds are fuzz seeds long enough (≥ 256 KiB) that the corpus reaches
// what short inputs never do: overlapping matches split over many elements,
// the 8-byte match extension with every tail length, far offsets, and the
// largest hash table.
func largeSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(3))
	noise := make([]byte, 256<<10)
	rng.Read(noise)
	return [][]byte{
		leanFrame(tb, 256<<10),
		farOffsetInput(256<<10, 256<<10),
		periodic(300<<10, 7),
		periodic(300<<10, 64<<10+3),
		append(bytes.Repeat([]byte{0}, 256<<10), 1, 2, 3),
		noise,
	}
}

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("abcabcabcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0x3f, 0x80, 0, 0}, 40))
	for _, s := range largeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		roundTrip(t, src)
		tagged := EncodeTagged(nil, []byte{0xa5}, src)
		dec, err := Decode(nil, tagged)
		if err != nil || len(dec) != len(src)+1 || dec[0] != 0xa5 || !bytes.Equal(dec[1:], src) {
			t.Fatalf("EncodeTagged round trip failed (err %v)", err)
		}
		if len(tagged) > MaxEncodedLen(len(src)+1) {
			t.Fatalf("EncodeTagged wrote %d bytes, MaxEncodedLen is %d", len(tagged), MaxEncodedLen(len(src)+1))
		}
	})
}

// FuzzDecode feeds arbitrary bytes to the decoder: it must never panic or
// read out of bounds, only return data or an error — and it must accept
// exactly the blocks the seed decoder accepted, with the same output.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(nil, bytes.Repeat([]byte("pls"), 50)))
	f.Add([]byte{4, 0x06, 'a', 'b', 'c', 'd'})
	for _, s := range largeSeeds(f) {
		f.Add(Encode(nil, s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		out, err := Decode(nil, src)
		old, oldErr := decodeSeed(nil, src)
		if (err == nil) != (oldErr == nil) {
			t.Fatalf("Decode err = %v, seed decoder err = %v", err, oldErr)
		}
		if err == nil {
			if !bytes.Equal(out, old) {
				t.Fatal("Decode and the seed decoder disagree on a valid block")
			}
			// A valid block must re-encode/re-decode consistently.
			if _, err := Decode(nil, Encode(nil, out)); err != nil {
				t.Fatalf("re-encode of decoded output failed: %v", err)
			}
		}
	})
}

// decodeSeed is the decoder as it stood before the encoder and decoder were
// rewritten for speed (append-based, byte-at-a-time match copy), kept
// verbatim as the oracle for "a peer running the old code still reads what
// the new encoder writes".
func decodeSeed(dst, src []byte) ([]byte, error) {
	declared, sz := binary.Uvarint(src)
	if sz <= 0 || declared > 1<<32 {
		return dst, fmt.Errorf("%w: bad length prefix", ErrCorrupt)
	}
	src = src[sz:]
	if declared > uint64(len(src))*maxMatchTag {
		return dst, fmt.Errorf("%w: declared length %d impossible for %d input bytes", ErrCorrupt, declared, len(src))
	}
	base := len(dst)
	if cap(dst)-base < int(declared) {
		grown := make([]byte, base, base+int(declared))
		copy(grown, dst)
		dst = grown
	}
	for len(src) > 0 {
		tag := src[0]
		src = src[1:]
		if tag&1 == 0 {
			n := int(tag>>1) + 1
			if n > len(src) {
				return dst, fmt.Errorf("%w: literal run of %d overruns input", ErrCorrupt, n)
			}
			dst = append(dst, src[:n]...)
			src = src[n:]
			continue
		}
		n := int(tag>>1) + minMatch
		offset, osz := binary.Uvarint(src)
		if osz <= 0 {
			return dst, fmt.Errorf("%w: truncated match offset", ErrCorrupt)
		}
		src = src[osz:]
		if offset == 0 || offset > uint64(len(dst)-base) {
			return dst, fmt.Errorf("%w: match offset %d at output position %d", ErrCorrupt, offset, len(dst)-base)
		}
		from := len(dst) - int(offset)
		for i := 0; i < n; i++ {
			dst = append(dst, dst[from+i])
		}
	}
	if len(dst)-base != int(declared) {
		return dst, fmt.Errorf("%w: decoded %d bytes, block declares %d", ErrCorrupt, len(dst)-base, declared)
	}
	return dst, nil
}

// --- inputs shaped like the traffic ---

// leanFrame returns at least size bytes of what the lean exchange actually
// compresses: one v2 fp16exact sample batch of 2048-feature samples whose
// features sit on a grid of halves (class mean plus unit noise), so 2-byte
// values recur at every distance but long runs do not.
func leanFrame(tb testing.TB, size int) []byte {
	const features = 2048
	n := size/(2*features) + 1
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "lean-frame", NumSamples: n, Classes: 16, FeatureDim: features,
		ClassSep: 16, NoiseStd: 1, Bytes: 4 * features, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range ds.Train {
		for j, f := range s.Features {
			s.Features[j] = float32(math.Round(float64(f)*2) / 2)
		}
	}
	frame := data.AppendSampleBatchEnc(nil, ds.Train, data.EncodingFP16Exact)
	if len(frame) < size || len(frame) > n*(2*features+12) {
		tb.Fatalf("lean frame of %d samples is %d bytes, want just over %d: did the features leave the fp16 grid?", n, len(frame), size)
	}
	return frame
}

// farOffsetInput is the adversarial case for an encoder whose per-match work
// grows with the match distance: a random dictionary followed by short
// snippets of it in random order, each a short match far back.
func farOffsetInput(dict, tail int) []byte {
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, dict, dict+tail+16)
	rng.Read(src)
	for len(src) < dict+tail {
		at := rng.Intn(dict - 12)
		src = append(src, src[at:at+12]...)
		src = append(src, byte(rng.Intn(256)))
	}
	return src
}

func periodic(n, period int) []byte {
	rng := rand.New(rand.NewSource(int64(period)))
	chunk := make([]byte, period)
	rng.Read(chunk)
	src := make([]byte, n)
	for i := range src {
		src[i] = chunk[i%period]
	}
	return src
}

// TestEncodeWorkIsLinear bounds the encoder's work — hash-table stores, the
// one operation every loop iteration performs — at two per source byte on
// every input shape from 4 KiB to 4 MiB. The seed encoder re-seeded its
// table across the whole match *distance* after every match, so lean frames
// cost it hundreds of stores per byte; a count cannot flake the way a
// timing would.
func TestEncodeWorkIsLinear(t *testing.T) {
	inputs := map[string]func(n int) []byte{
		"random": func(n int) []byte {
			src := make([]byte, n)
			rand.New(rand.NewSource(9)).Read(src)
			return src
		},
		"zeros":       func(n int) []byte { return make([]byte, n) },
		"lean-frame":  func(n int) []byte { return leanFrame(t, n) },
		"far-offset":  func(n int) []byte { return farOffsetInput(n/2, n/2) },
		"period-4":    func(n int) []byte { return periodic(n, 4) },
		"period-1KiB": func(n int) []byte { return periodic(n, 1<<10) },
		"period-64Ki": func(n int) []byte { return periodic(n, 64<<10) },
		"period-512K": func(n int) []byte { return periodic(n, 512<<10) },
	}
	sizes := []int{4 << 10, 64 << 10, 1 << 20, 4 << 20}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for name, gen := range inputs {
		for _, n := range sizes {
			src := gen(n)
			enc, stores := encodeBody(nil, nil, src)
			if stores > 2*len(src) {
				t.Errorf("%s/%d: %d hash-table stores for %d bytes (%.1f per byte), want ≤ 2 per byte",
					name, n, stores, len(src), float64(stores)/float64(len(src)))
			}
			if len(enc) > MaxEncodedLen(len(src)) {
				t.Errorf("%s/%d: body of %d bytes exceeds MaxEncodedLen", name, n, len(enc))
			}
		}
	}
}

// TestLargeRoundTrips runs the traffic-shaped inputs through the new and the
// seed decoder, and pins that grid-snapped fp16 batches — the payload the
// lean exchange ships — compress at all (they have no runs, only recurring
// pairs).
func TestLargeRoundTrips(t *testing.T) {
	for i, src := range largeSeeds(t) {
		enc := roundTrip(t, src)
		if i == 0 && len(enc)*5 > len(src)*4 {
			t.Errorf("lean frame compressed %d -> %d, want at least 1.25x", len(src), len(enc))
		}
	}
}

// --- benchmarks ---

func benchEncode(b *testing.B, src []byte) {
	buf := make([]byte, 0, MaxEncodedLen(len(src)))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], src)
	}
	b.ReportMetric(float64(len(src))/float64(len(buf)), "ratio")
}

func benchDecode(b *testing.B, src []byte) {
	enc := Encode(nil, src)
	out := make([]byte, 0, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = Decode(out[:0], enc)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// batch64 is a 5.9 KiB toy of 64 fp32 headers and 16 low-entropy features
// each. It flatters the codec (tiny offsets, long matches); the LeanFrame
// and FarOffset benchmarks are the ones shaped like the exchange.
func batch64() []byte {
	var src []byte
	for i := 0; i < 64; i++ {
		hdr := make([]byte, 28)
		hdr[0] = byte(i)
		src = append(src, hdr...)
		for j := 0; j < 16; j++ {
			src = append(src, byte(j), 0, 0x80, 0x3f)
		}
	}
	return src
}

func BenchmarkEncodeBatch64(b *testing.B)   { benchEncode(b, batch64()) }
func BenchmarkDecodeBatch64(b *testing.B)   { benchDecode(b, batch64()) }
func BenchmarkEncodeLeanFrame(b *testing.B) { benchEncode(b, leanFrame(b, 1<<20)) }
func BenchmarkDecodeLeanFrame(b *testing.B) { benchDecode(b, leanFrame(b, 1<<20)) }
func BenchmarkEncodeFarOffset(b *testing.B) { benchEncode(b, farOffsetInput(512<<10, 512<<10)) }
