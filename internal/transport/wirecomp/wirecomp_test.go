package wirecomp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plshuffle/internal/data"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Encode(nil, src)
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
		[]byte("abcde"),
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
	src := batch64()
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
		switch i % 4 {
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
		case 3: // geometric: a few common bytes and a long tail of rare ones
			for j := range src {
				src[j] = byte(min(rng.ExpFloat64()*8, 255))
			}
		}
		roundTrip(t, src)
		tagged := EncodeTagged(nil, src[:min(len(src), i%7)], src[min(len(src), i%7):])
		if !bytes.Equal(tagged, Encode(nil, src)) {
			t.Fatalf("case %d: EncodeTagged(head, rest) differs from Encode(head+rest)", i)
		}
	}
}

// skewed returns bytes whose symbol counts follow the Fibonacci numbers, the
// frequencies that give an unlimited Huffman code its deepest tree (symbol i
// would need a code of about i bits).
func skewed(symbols int) []byte {
	var src []byte
	a, b := 1, 1
	for s := 0; s < symbols; s++ {
		src = append(src, bytes.Repeat([]byte{byte(s)}, a)...)
		a, b = b, a+b
	}
	rand.New(rand.NewSource(2)).Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
	return src
}

// TestCodeLengthsAreLimitedAndComplete pins the length limit: on
// frequencies that want codes of 20+ bits every length stays within
// maxCodeLen and the Kraft sum is exactly 1 (no code space wasted), and the
// block still round-trips.
func TestCodeLengthsAreLimitedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		var freq [256]uint32
		switch {
		case i == 0:
			for s, a, b := 0, uint32(1), uint32(1); s < 30; s++ {
				freq[s], a, b = a, b, a+b
			}
		default:
			for s := range freq[:2+rng.Intn(255)] {
				freq[s] = uint32(rng.ExpFloat64() * float64(uint32(1)<<rng.Intn(24)))
			}
		}
		var lens [256]uint8
		huffmanLengths(&freq, &lens)
		present, kraft := 0, 0
		for s, l := range lens {
			if (l > 0) != (freq[s] > 0) || l > maxCodeLen {
				t.Fatalf("case %d: symbol %d (freq %d) has code length %d", i, s, freq[s], l)
			}
			if l > 0 {
				present++
				kraft += tableSize >> l
			}
		}
		if present > 1 && kraft != tableSize {
			t.Fatalf("case %d: Kraft sum %d/%d, want a complete code", i, kraft, tableSize)
		}
	}
	roundTrip(t, skewed(24))
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

// block assembles a block by hand: declared length n, the code lengths
// given as symbol → length, three stream sizes and the stream bytes.
func block(n int, lens map[byte]uint8, sizes [3]uint64, body ...byte) []byte {
	b := binary.AppendUvarint(nil, uint64(n))
	var packed [lengthsLen]byte
	for s, l := range lens {
		packed[s/2] |= l << (4 * (s % 2))
	}
	b = append(b, packed[:]...)
	for _, sz := range sizes {
		b = binary.AppendUvarint(b, sz)
	}
	return append(b, body...)
}

// corruptBlocks are malformed blocks, each with the fragment of the error
// Decode must refuse it with — so each reaches the check it is named after.
func corruptBlocks() []struct {
	name, want string
	src        []byte
} {
	abcd := Encode(nil, bytes.Repeat([]byte("abcd"), 1000)) // four 2-bit codes, 250-byte streams
	zeros := Encode(nil, make([]byte, 10000))               // one 1-bit code, all bits 0
	withByte := func(b []byte, i int, v byte) []byte {
		b = bytes.Clone(b)
		b[i] = v
		return b
	}
	oneA := map[byte]uint8{'a': 1}
	return []struct {
		name, want string
		src        []byte
	}{
		{"empty input", "bad length prefix", nil},
		{"huge length prefix", "bad length prefix", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"bytes after an empty block", "after an empty block", []byte{0, 0}},
		{"truncated code lengths", "truncated code lengths", abcd[:2+lengthsLen-1]},
		{"truncated stream size", "truncated or oversized stream size", abcd[:2+lengthsLen+4]},
		{"length nibble above 11", "code length 12", withByte(abcd, 2+'a'/2, 0x0c)},
		{"over-subscribed lengths", "Kraft sum", block(4, map[byte]uint8{'a': 1, 'b': 1, 'c': 1}, [3]uint64{1, 1, 1}, 0, 0, 0, 0)},
		{"no code at all", "Kraft sum", block(4, nil, [3]uint64{1, 1, 1}, 0, 0, 0, 0)},
		{"bit pattern naming no code", "stream 0 ends early or names no code", block(1, oneA, [3]uint64{1, 0, 0}, 0x01)},
		{"bit pattern naming no code mid-stream", "a bit pattern names no code", withByte(zeros, len(zeros)-600, 0x10)},
		{"stream size past the input", "overrun the block", block(4, oneA, [3]uint64{100, 0, 0}, 0)},
		{"middle stream ends early", "stream 1 ends early", block(8, oneA, [3]uint64{1, 0, 0}, 0, 0)},
		{"last stream ends early", "stream 3 ends early", abcd[:len(abcd)-1]},
		{"trailing bytes after the last stream", "stream 3 has bits left over", append(bytes.Clone(abcd), 0)},
		{"a stream too long for its output", "stream 0 has bits left over", block(1, oneA, [3]uint64{2, 0, 0}, 0, 0)},
		{"nonzero padding bits", "stream 0 has bits left over", block(1, oneA, [3]uint64{1, 0, 0}, 0x02)},
		{"declared length above 8 × stream bytes", "impossible for 1 stream bytes", block(9, oneA, [3]uint64{1, 0, 0}, 0)},
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	for _, c := range corruptBlocks() {
		_, err := Decode(nil, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode err = %v, want one containing %q", c.name, err, c.want)
		}
	}
	// The allocation guard the TCP reader sizes its buffer by refuses the
	// impossible length before any decoding.
	if n, err := DecodedLen(block(9, map[byte]uint8{'a': 1}, [3]uint64{1, 0, 0}, 0)); err == nil {
		t.Errorf("DecodedLen accepted 9 bytes from one stream byte (n=%d)", n)
	}
	if n, err := DecodedLen(block(8, map[byte]uint8{'a': 1}, [3]uint64{1, 0, 0}, 0)); err != nil || n != 8 {
		t.Errorf("DecodedLen refused 8 bytes from one stream byte: %d, %v", n, err)
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

var update = flag.Bool("update", false, "rewrite testdata/blocks.golden from the current encoder")

// goldenInputs are the inputs whose blocks testdata/blocks.golden pins.
func goldenInputs(tb testing.TB) []struct {
	name string
	src  []byte
} {
	noise := make([]byte, 1<<10)
	rand.New(rand.NewSource(11)).Read(noise)
	return []struct {
		name string
		src  []byte
	}{
		{"empty", nil},
		{"one-byte", []byte{'x'}},
		{"zeros-10000", make([]byte, 10000)},
		{"batch64", batch64()},
		{"lean-frame-4KiB", leanFrame(tb, 4<<10)[:4<<10]},
		{"noise-1KiB", noise},
	}
}

// TestGoldenBlocks pins the block format: Encode of each named input must
// be the recorded block byte for byte, and the recorded block must decode to
// the input, so neither side of the format can drift unnoticed. Regenerate
// (only for a deliberate format change) with
//
//	go test ./internal/transport/wirecomp -run TestGoldenBlocks -update
func TestGoldenBlocks(t *testing.T) {
	path := filepath.Join("testdata", "blocks.golden")
	inputs := goldenInputs(t)
	if *update {
		var out bytes.Buffer
		for _, in := range inputs {
			out.WriteString(in.name + " " + hex.EncodeToString(Encode(nil, in.src)) + "\n")
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	golden := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, _ := strings.Cut(sc.Text(), " ")
		if golden[name], err = hex.DecodeString(hx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		want, ok := golden[in.name]
		if !ok {
			t.Errorf("%s: no golden block", in.name)
			continue
		}
		if got := Encode(nil, in.src); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode wrote %d bytes that differ from the golden %d", in.name, len(got), len(want))
		}
		if dec, err := Decode(nil, want); err != nil || !bytes.Equal(dec, in.src) {
			t.Errorf("%s: the golden block does not decode to the input (err %v)", in.name, err)
		}
	}
}

// largeSeeds are fuzz seeds long enough (≥ 256 KiB) that the corpus reaches
// what short inputs never do: the decoder's lockstep loop over long streams,
// streams of very different lengths, and the flat-code fallback.
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
	f.Add(skewed(20))
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
// read out of bounds, only return data or an error, and what it accepts
// must agree with DecodedLen and survive a re-encode.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(nil, bytes.Repeat([]byte("pls"), 50)))
	f.Add(Encode(nil, skewed(20)))
	for _, c := range corruptBlocks() {
		f.Add(c.src)
	}
	for _, s := range largeSeeds(f) {
		f.Add(Encode(nil, s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		out, err := Decode(nil, src)
		if err != nil {
			return
		}
		if n, err := DecodedLen(src); err != nil || n != len(out) {
			t.Fatalf("Decode gave %d bytes, DecodedLen says %d, %v", len(out), n, err)
		}
		if back, err := Decode(nil, Encode(nil, out)); err != nil || !bytes.Equal(back, out) {
			t.Fatalf("re-encode of decoded output failed: %v", err)
		}
	})
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

// farOffsetInput is a random dictionary followed by short snippets of it in
// random order: repetitive to a byte matcher, near-uniform bytes to an order-0
// code, so its blocks take the flat-code fallback.
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

// TestShapeMatrix runs every traffic shape from 4 KiB to 4 MiB through the
// codec: each must round-trip and stay within MaxEncodedLen, which the
// encoder holds by falling back to flat 8-bit codes on input a Huffman code
// would grow (random bytes, and the periodic chunks of random bytes).
func TestShapeMatrix(t *testing.T) {
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
			enc := Encode(nil, src)
			if len(enc) > MaxEncodedLen(len(src)) {
				t.Errorf("%s/%d: block of %d bytes exceeds MaxEncodedLen %d", name, n, len(enc), MaxEncodedLen(len(src)))
			}
			if dec, err := Decode(nil, enc); err != nil || !bytes.Equal(dec, src) {
				t.Errorf("%s/%d: round trip failed (err %v)", name, n, err)
			}
		}
	}
}

// TestLargeRoundTrips runs the traffic-shaped inputs through the codec, and
// pins what order-0 coding buys on grid-snapped fp16 batches — the payload
// the lean exchange ships, whose bytes carry about 2.45 bits each.
func TestLargeRoundTrips(t *testing.T) {
	for i, src := range largeSeeds(t) {
		enc := roundTrip(t, src)
		if i == 0 && len(enc)*5 > len(src)*2 {
			t.Errorf("lean frame compressed %d -> %d, want at least 2.5x", len(src), len(enc))
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
// each: a block this small is mostly the codec's per-block work (histograms,
// code build, decode table). The LeanFrame benchmarks are shaped like the
// exchange; FarOffset encodes through the flat-code fallback.
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
