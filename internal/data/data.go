// Package data provides the dataset substrate: samples, synthetic
// Gaussian-mixture classification datasets standing in for the paper's
// image datasets, and a registry carrying Table I's real metadata together
// with scaled-down proxy specifications.
//
// The paper's datasets (ImageNet-1K/-21K/-50, CIFAR-100, Stanford Cars,
// DeepCAM) cannot be redistributed or trained here; what the shuffling
// study actually depends on is the number of samples N, the number of
// classes C, the samples-per-worker ratio N/M, and the per-sample byte
// size. The synthetic generator preserves those quantities (at reduced
// scale for N) while producing a genuinely learnable classification task.
package data

import (
	"encoding/binary"
	"fmt"
	"math"

	"plshuffle/internal/rng"
)

// Sample is one training example. Features/Label drive the actual SGD
// training; Bytes is the simulated on-disk size used for storage accounting
// and the performance model (e.g. ~117 KiB for an ImageNet JPEG, ~70 MiB
// for a DeepCAM HDF5 sample).
//
// A sample's Features are never written while anything holds the sample:
// the exchange hands one decoded sample to both the local store and the
// dedup segment (DESIGN.md §13.2), which share its feature array, and
// rewrites an array (the next decode into it, FeatureSource) only after the
// store and every segment have let it go. Code that needs to change
// features works on a Clone.
type Sample struct {
	ID       int
	Label    int
	Features []float32
	Bytes    int64
}

// Clone returns a deep copy of the sample.
func (s Sample) Clone() Sample {
	f := make([]float32, len(s.Features))
	copy(f, s.Features)
	return Sample{ID: s.ID, Label: s.Label, Features: f, Bytes: s.Bytes}
}

// sampleHeaderLen is the fixed part of one encoded sample: ID, Label,
// Bytes (8 bytes each) plus the feature count (4 bytes).
const sampleHeaderLen = 8 + 8 + 8 + 4

// WireSize returns the exact number of bytes Encode/AppendEncode produce
// for this sample, without allocating.
func (s Sample) WireSize() int { return sampleHeaderLen + 4*len(s.Features) }

// AppendEncode appends the sample's wire encoding to dst and returns the
// extended slice — the allocation-free form of Encode for callers that
// reuse a scratch buffer across samples (e.g. the exchange scheduler's
// batched frames).
func (s Sample) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.ID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Label))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Bytes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Features)))
	return appendFeatures(dst, s.Features)
}

// Encode serializes the sample to bytes (the wire format used when workers
// exchange samples through the message-passing runtime).
func (s Sample) Encode() []byte {
	return s.AppendEncode(make([]byte, 0, s.WireSize()))
}

// FeatureSource is where the batch decoders take the feature arrays they
// fill: arrays handed back with Recycle first, fresh ones once it runs dry.
// The exchange scheduler keeps one and recycles the arrays of samples it
// sent away, so a received sample lands in memory that already exists. A
// recycled array is overwritten by the next decode that takes it: Recycle
// only an array nothing else can still read (DESIGN.md §13.2). The nil
// *FeatureSource allocates every array. Not safe for concurrent use.
type FeatureSource struct {
	free [][]float32
}

// Recycle hands f to a later decode.
func (fs *FeatureSource) Recycle(f []float32) { fs.free = append(fs.free, f) }

// take returns an array of length n for a decoder that fills all of it.
func (fs *FeatureSource) take(n int) []float32 {
	if fs != nil {
		if k := len(fs.free) - 1; k >= 0 && cap(fs.free[k]) >= n {
			f := fs.free[k][:n]
			fs.free[k] = nil
			fs.free = fs.free[:k]
			return f
		}
	}
	return make([]float32, n)
}

// decodeSampleAt parses one encoded sample starting at buf[off], its
// features into an array from fs, and returns it together with the offset
// just past its encoding.
func (fs *FeatureSource) decodeSampleAt(buf []byte, off int) (Sample, int, error) {
	if len(buf)-off < sampleHeaderLen {
		return Sample{}, 0, fmt.Errorf("data: DecodeSample: buffer too short (%d bytes)", len(buf)-off)
	}
	var s Sample
	s.ID = int(int64(binary.LittleEndian.Uint64(buf[off:])))
	off += 8
	s.Label = int(int64(binary.LittleEndian.Uint64(buf[off:])))
	off += 8
	s.Bytes = int64(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if n < 0 || n > (len(buf)-off)/4 {
		return Sample{}, 0, fmt.Errorf("data: DecodeSample: %d features exceed %d remaining bytes", n, len(buf)-off)
	}
	s.Features = fs.take(n)
	readFeatures(s.Features, buf[off:])
	return s, off + 4*n, nil
}

// DecodeSample parses the wire format produced by Encode.
func DecodeSample(buf []byte) (Sample, error) {
	s, off, err := (*FeatureSource)(nil).decodeSampleAt(buf, 0)
	if err != nil {
		return Sample{}, err
	}
	if off != len(buf) {
		return Sample{}, fmt.Errorf("data: DecodeSample: %d trailing bytes after sample", len(buf)-off)
	}
	return s, nil
}

// SampleBatchWireSize returns the exact encoded size of a batch of samples
// (count prefix plus each sample's encoding), without allocating. Exchange
// byte accounting uses it to size coalesced frames ahead of encoding.
func SampleBatchWireSize(samples []Sample) int {
	n := 4
	for _, s := range samples {
		n += s.WireSize()
	}
	return n
}

// AppendSampleBatch appends the batch wire encoding of samples to dst:
// a uint32 sample count followed by each sample's Encode bytes. Batching
// many samples into one frame is what lets the exchange scheduler send one
// message per (chunk, destination) instead of one per sample — the frame
// overhead the paper's communication model charges per message drops by
// the batching factor.
func AppendSampleBatch(dst []byte, samples []Sample) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(samples)))
	for _, s := range samples {
		dst = s.AppendEncode(dst)
	}
	return dst
}

// EncodeSampleBatch serializes a batch of samples into a single buffer
// (see AppendSampleBatch for the format).
func EncodeSampleBatch(samples []Sample) []byte {
	return AppendSampleBatch(make([]byte, 0, SampleBatchWireSize(samples)), samples)
}

// maxBatchCount bounds the declared sample count of a batch so a hostile
// count cannot force a giant decode loop; each sample needs at least
// sampleHeaderLen bytes, so the bound below is never the binding check for
// well-formed input.
const maxBatchCount = 1 << 24

// DecodeSampleBatch parses an EncodeSampleBatch buffer back into its
// samples. Malformed input returns an error; it never panics.
func DecodeSampleBatch(buf []byte) ([]Sample, error) {
	return DecodeSampleBatchInto(nil, buf)
}

// DecodeSampleBatchInto appends the decoded samples to dst (which may be
// nil) and returns the extended slice — the scheduler reuses its received
// slice's capacity across epochs this way. Any error leaves dst unchanged
// in the returned value's prefix but the appended tail must be discarded.
func DecodeSampleBatchInto(dst []Sample, buf []byte) ([]Sample, error) {
	return (*FeatureSource)(nil).DecodeSampleBatchInto(dst, buf)
}

// DecodeSampleBatchInto is the package's DecodeSampleBatchInto with every
// feature array taken from fs.
func (fs *FeatureSource) DecodeSampleBatchInto(dst []Sample, buf []byte) ([]Sample, error) {
	if len(buf) < 4 {
		return dst, fmt.Errorf("data: DecodeSampleBatch: buffer too short (%d bytes)", len(buf))
	}
	count := binary.LittleEndian.Uint32(buf)
	if count&batchV2Flag != 0 {
		// Compact (v2) batch — see encoding.go. The legacy encoder bounds
		// counts at maxBatchCount, so bit 31 unambiguously marks v2.
		return fs.decodeSampleBatchV2(dst, buf)
	}
	if count > maxBatchCount {
		return dst, fmt.Errorf("data: DecodeSampleBatch: count %d out of range", count)
	}
	if int(count)*sampleHeaderLen > len(buf)-4 {
		return dst, fmt.Errorf("data: DecodeSampleBatch: count %d exceeds %d payload bytes", count, len(buf)-4)
	}
	off := 4
	for i := uint32(0); i < count; i++ {
		s, next, err := fs.decodeSampleAt(buf, off)
		if err != nil {
			return dst, fmt.Errorf("data: DecodeSampleBatch: sample %d: %w", i, err)
		}
		dst = append(dst, s)
		off = next
	}
	if off != len(buf) {
		return dst, fmt.Errorf("data: DecodeSampleBatch: %d trailing bytes after %d samples", len(buf)-off, count)
	}
	return dst, nil
}

// Dataset is an in-memory dataset with a train/validation split (the paper
// uses 80%/20% for ImageNet-21K and the standard splits elsewhere).
type Dataset struct {
	Name        string
	Train       []Sample
	Val         []Sample
	Classes     int
	FeatureDim  int
	SampleBytes int64 // simulated bytes per sample
}

// TotalBytes returns the simulated total size of the training set.
func (d *Dataset) TotalBytes() int64 {
	var t int64
	for _, s := range d.Train {
		t += s.Bytes
	}
	return t
}

// SyntheticSpec configures the Gaussian-mixture generator.
//
// The discriminative features (FeatureDim of them, separated by ClassSep)
// set the task difficulty. The optional nuisance features model what makes
// image datasets batch-norm-sensitive: directions with large between-class
// variance but no extra margin (backgrounds, color statistics, object
// scale). A worker whose small local shard covers only part of the classes
// sees strongly shifted statistics along the nuisance directions, and batch
// normalization propagates that shift into every hidden unit — the
// Section IV-A.1 mechanism behind local shuffling's accuracy loss at scale.
type SyntheticSpec struct {
	Name        string
	NumSamples  int     // training samples N
	NumVal      int     // validation samples
	Classes     int     // C
	FeatureDim  int     // discriminative dimensions D
	ClassSep    float32 // distance scale between class means (task difficulty)
	NoiseStd    float32 // within-class standard deviation
	NuisanceDim int     // extra high-between-class-variance dimensions
	NuisanceSep float32 // class-mean scale of the nuisance dimensions
	// NuisanceGroups shares one nuisance mean among C/NuisanceGroups
	// classes (0 = per-class). Grouped nuisance directions shift shard
	// statistics without adding class margin within a group, which is what
	// lets the proxy exhibit the paper's BN-driven LS degradation without
	// making the task trivially separable.
	NuisanceGroups int
	Bytes          int64 // simulated bytes per sample
	Seed           uint64
}

// TotalDim returns the full feature dimensionality.
func (sp SyntheticSpec) TotalDim() int { return sp.FeatureDim + sp.NuisanceDim }

// Validate reports configuration errors.
func (sp SyntheticSpec) Validate() error {
	if sp.NumSamples <= 0 || sp.NumVal < 0 {
		return fmt.Errorf("data: spec %q: sample counts must be positive (train=%d val=%d)", sp.Name, sp.NumSamples, sp.NumVal)
	}
	if sp.Classes < 2 {
		return fmt.Errorf("data: spec %q: need at least 2 classes, got %d", sp.Name, sp.Classes)
	}
	if sp.FeatureDim <= 0 {
		return fmt.Errorf("data: spec %q: FeatureDim must be positive, got %d", sp.Name, sp.FeatureDim)
	}
	if sp.NuisanceDim < 0 {
		return fmt.Errorf("data: spec %q: NuisanceDim must be non-negative, got %d", sp.Name, sp.NuisanceDim)
	}
	return nil
}

// Generate builds the synthetic dataset: class means are random Gaussian
// vectors scaled by ClassSep/sqrt(D); each sample is its class mean plus
// N(0, NoiseStd) noise. Labels cycle round-robin so classes are balanced,
// and sample IDs enumerate the training set 0..N-1 (validation IDs follow).
func Generate(sp SyntheticSpec) (*Dataset, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(sp.Seed)
	dim := sp.TotalDim()
	scale := sp.ClassSep / float32(math.Sqrt(float64(sp.FeatureDim)))
	means := make([][]float32, sp.Classes)
	for c := range means {
		means[c] = make([]float32, dim)
		for j := 0; j < sp.FeatureDim; j++ {
			means[c][j] = r.NormFloat32() * scale
		}
	}
	groups := sp.NuisanceGroups
	if groups <= 0 || groups > sp.Classes {
		groups = sp.Classes
	}
	groupMeans := make([][]float32, groups)
	for g := range groupMeans {
		groupMeans[g] = make([]float32, sp.NuisanceDim)
		for j := range groupMeans[g] {
			groupMeans[g][j] = r.NormFloat32() * sp.NuisanceSep
		}
	}
	for c := range means {
		copy(means[c][sp.FeatureDim:], groupMeans[c%groups])
	}
	mk := func(id int) Sample {
		c := id % sp.Classes
		f := make([]float32, dim)
		for j := range f {
			f[j] = means[c][j] + r.NormFloat32()*sp.NoiseStd
		}
		return Sample{ID: id, Label: c, Features: f, Bytes: sp.Bytes}
	}
	d := &Dataset{
		Name:        sp.Name,
		Classes:     sp.Classes,
		FeatureDim:  dim,
		SampleBytes: sp.Bytes,
		Train:       make([]Sample, sp.NumSamples),
		Val:         make([]Sample, sp.NumVal),
	}
	for i := 0; i < sp.NumSamples; i++ {
		d.Train[i] = mk(i)
	}
	for i := 0; i < sp.NumVal; i++ {
		d.Val[i] = mk(sp.NumSamples + i)
	}
	return d, nil
}
