package data

import (
	"math"
	"testing"
	"testing/quick"

	"plshuffle/internal/rng"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	s := Sample{ID: 42, Label: 7, Features: []float32{1.5, -2.25, 0, 3e7}, Bytes: 117 << 10}
	got, err := DecodeSample(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != s.ID || got.Label != s.Label || got.Bytes != s.Bytes {
		t.Fatalf("roundtrip metadata mismatch: %+v", got)
	}
	for i := range s.Features {
		if got.Features[i] != s.Features[i] {
			t.Fatalf("feature %d: %v != %v", i, got.Features[i], s.Features[i])
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	check := func(id, label int32, bytes int64, feats []float32) bool {
		s := Sample{ID: int(id), Label: int(label), Features: feats, Bytes: bytes}
		got, err := DecodeSample(s.Encode())
		if err != nil {
			return false
		}
		if got.ID != s.ID || got.Label != s.Label || got.Bytes != s.Bytes || len(got.Features) != len(s.Features) {
			return false
		}
		for i := range feats {
			// Compare bit patterns so NaN features round-trip too.
			if math.Float32bits(got.Features[i]) != math.Float32bits(feats[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeSample([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
	s := Sample{ID: 1, Features: []float32{1, 2}}
	buf := s.Encode()
	if _, err := DecodeSample(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := Sample{ID: 1, Features: []float32{1, 2}}
	c := s.Clone()
	c.Features[0] = 99
	if s.Features[0] != 1 {
		t.Fatal("Clone shares feature storage")
	}
}

func TestGenerateShapeAndBalance(t *testing.T) {
	sp := SyntheticSpec{Name: "t", NumSamples: 1000, NumVal: 200, Classes: 10,
		FeatureDim: 16, ClassSep: 3, NoiseStd: 1, Bytes: 100, Seed: 1}
	d, err := Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Train) != 1000 || len(d.Val) != 200 {
		t.Fatalf("sizes: %d train, %d val", len(d.Train), len(d.Val))
	}
	counts := make([]int, 10)
	for i, s := range d.Train {
		if s.ID != i {
			t.Fatalf("train ID %d at index %d", s.ID, i)
		}
		if len(s.Features) != 16 {
			t.Fatalf("feature dim %d", len(s.Features))
		}
		if s.Bytes != 100 {
			t.Fatalf("bytes %d", s.Bytes)
		}
		counts[s.Label]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d has %d samples, want 100 (balanced)", c, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	sp := SyntheticSpec{Name: "t", NumSamples: 64, NumVal: 8, Classes: 4,
		FeatureDim: 8, ClassSep: 3, NoiseStd: 1, Seed: 7}
	a, _ := Generate(sp)
	b, _ := Generate(sp)
	for i := range a.Train {
		for j := range a.Train[i].Features {
			if a.Train[i].Features[j] != b.Train[i].Features[j] {
				t.Fatal("generation is not deterministic")
			}
		}
	}
}

func TestGenerateClassesAreSeparated(t *testing.T) {
	// With high separation and low noise, a nearest-class-mean classifier
	// should get almost everything right; this guards against a generator
	// that produces unlearnable data.
	sp := SyntheticSpec{Name: "t", NumSamples: 500, NumVal: 0, Classes: 5,
		FeatureDim: 16, ClassSep: 8, NoiseStd: 0.5, Seed: 3}
	d, _ := Generate(sp)
	// Estimate class means from the data itself.
	means := make([][]float64, 5)
	counts := make([]int, 5)
	for c := range means {
		means[c] = make([]float64, 16)
	}
	for _, s := range d.Train {
		counts[s.Label]++
		for j, f := range s.Features {
			means[s.Label][j] += float64(f)
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for _, s := range d.Train {
		best, bestC := math.Inf(1), -1
		for c := range means {
			var dist float64
			for j, f := range s.Features {
				df := float64(f) - means[c][j]
				dist += df * df
			}
			if dist < best {
				best, bestC = dist, c
			}
		}
		if bestC == s.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(d.Train)); acc < 0.95 {
		t.Fatalf("nearest-mean accuracy %v, want >= 0.95", acc)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []SyntheticSpec{
		{Name: "n0", NumSamples: 0, Classes: 2, FeatureDim: 1},
		{Name: "c1", NumSamples: 10, Classes: 1, FeatureDim: 1},
		{Name: "d0", NumSamples: 10, Classes: 2, FeatureDim: 0},
		{Name: "vneg", NumSamples: 10, NumVal: -1, Classes: 2, FeatureDim: 1},
	}
	for _, sp := range bad {
		if _, err := Generate(sp); err == nil {
			t.Errorf("spec %q accepted", sp.Name)
		}
	}
}

func TestRegistryTable1(t *testing.T) {
	keys := DatasetKeys()
	if len(keys) != 6 {
		t.Fatalf("Table I has 6 datasets, registry lists %d", len(keys))
	}
	for _, k := range keys {
		info, err := Info(k)
		if err != nil {
			t.Fatalf("Info(%q): %v", k, err)
		}
		if info.RealN <= 0 || info.RealBytes <= 0 {
			t.Errorf("%s: real metadata missing", k)
		}
		if err := info.Proxy.Validate(); err != nil {
			t.Errorf("%s proxy invalid: %v", k, err)
		}
		if len(info.Models) == 0 {
			t.Errorf("%s: no models", k)
		}
	}
	if _, err := Info("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRegistryPaperNumbers(t *testing.T) {
	// Spot-check against Table I and Section III-B's worked example:
	// ImageNet-21K at 512 workers with Q=0.1 exchanges ~225 MiB per worker.
	in21k, _ := Info("imagenet-21k")
	perWorker := float64(in21k.RealBytes) / 512
	exch := 0.1 * perWorker
	if exch < 200*float64(mib) || exch > 250*float64(mib) {
		t.Fatalf("ImageNet-21K Q=0.1 exchange per worker = %.0f MiB, paper says ~225 MiB", exch/float64(mib))
	}
	dc, _ := Info("deepcam")
	if dc.BytesPerSample() < 60*mib || dc.BytesPerSample() > 80*mib {
		t.Fatalf("DeepCAM bytes/sample = %d MiB, want ~70 MiB", dc.BytesPerSample()/mib)
	}
	in1k, _ := Info("imagenet-1k")
	if in1k.BytesPerSample() < 100*kib || in1k.BytesPerSample() > 130*kib {
		t.Fatalf("ImageNet-1K bytes/sample = %d KiB, want ~117 KiB", in1k.BytesPerSample()/kib)
	}
}

func TestLoadProxy(t *testing.T) {
	d, err := LoadProxy("cifar-100")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Train) == 0 || len(d.Val) == 0 {
		t.Fatal("proxy dataset empty")
	}
	if _, err := LoadProxy("nope"); err == nil {
		t.Fatal("unknown proxy accepted")
	}
}

func TestValIDsDisjointFromTrain(t *testing.T) {
	d, err := LoadProxy("stanford-cars")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, s := range d.Train {
		seen[s.ID] = true
	}
	for _, s := range d.Val {
		if seen[s.ID] {
			t.Fatalf("validation sample ID %d collides with training set", s.ID)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	r := rng.New(1)
	s := Sample{ID: 1, Label: 2, Features: make([]float32, 64), Bytes: 117 << 10}
	for i := range s.Features {
		s.Features[i] = r.NormFloat32()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Encode()
	}
}

func BenchmarkGenerate(b *testing.B) {
	sp := SyntheticSpec{Name: "b", NumSamples: 4096, NumVal: 512, Classes: 32,
		FeatureDim: 64, ClassSep: 4, NoiseStd: 1.2, Seed: 9}
	for i := 0; i < b.N; i++ {
		if _, err := Generate(sp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireSizeEncDoesNotAllocate: the dedup gate prices every referenced
// sample with WireSizeEnc, whose fp16 check narrows into a stack buffer —
// through the tensor kernel, which must not make that buffer escape.
func TestWireSizeEncDoesNotAllocate(t *testing.T) {
	r := rng.New(3)
	grid, noisy := make([]float32, 2048), make([]float32, 2048)
	for i := range grid {
		grid[i] = float32(i%97) / 2
		noisy[i] = r.NormFloat32()
	}
	for _, s := range []Sample{{ID: 1, Features: grid}, {ID: 2, Features: noisy}} {
		if allocs := testing.AllocsPerRun(100, func() { s.WireSizeEnc(EncodingFP16Exact) }); allocs != 0 {
			t.Errorf("sample %d: WireSizeEnc allocates %.1f times", s.ID, allocs)
		}
	}
}
