package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plshuffle/internal/data"
)

// ManifestName is the dataset descriptor file inside an ingested directory.
const ManifestName = "MANIFEST.json"

// valFileName holds the validation split as one shard file.
const valFileName = "val.pls"

// Manifest describes an ingested dataset: the metadata a worker needs to
// plan epochs (counts, dimensions, per-shard sizes) without touching any
// shard file. Every field is derived deterministically from the source
// dataset, so all ranks opening the same directory agree byte for byte.
type Manifest struct {
	FormatVersion   int    `json:"format_version"`
	Name            string `json:"name"`
	NumSamples      int    `json:"num_samples"` // training samples, IDs 0..NumSamples-1
	NumVal          int    `json:"num_val"`
	Classes         int    `json:"classes"`
	FeatureDim      int    `json:"feature_dim"`
	SampleBytes     int64  `json:"sample_bytes"` // simulated bytes per sample
	SamplesPerShard int    `json:"samples_per_shard"`
	NumShards       int    `json:"num_shards"`
	// ShardFileBytes are the real on-disk sizes of each shard file — what
	// the cache tier's byte budget accounts against.
	ShardFileBytes []int64 `json:"shard_file_bytes"`
	ValFileBytes   int64   `json:"val_file_bytes"`
}

// ShardSamples returns the number of samples in a shard (the last shard
// may be short).
func (m Manifest) ShardSamples(shardID int) int {
	if shardID < 0 || shardID >= m.NumShards {
		return 0
	}
	if shardID == m.NumShards-1 {
		if rem := m.NumSamples - shardID*m.SamplesPerShard; rem < m.SamplesPerShard {
			return rem
		}
	}
	return m.SamplesPerShard
}

// MaxShardBytes returns the largest shard file's size — the unit the cache
// tier sizes its pin windows against.
func (m Manifest) MaxShardBytes() int64 {
	var max int64
	for _, b := range m.ShardFileBytes {
		if b > max {
			max = b
		}
	}
	return max
}

// ShardOf maps a training sample ID to its (shard, index) location —
// pure arithmetic, because ingest lays samples out in ID order.
func (m Manifest) ShardOf(sampleID int) Ref {
	return Ref{Shard: sampleID / m.SamplesPerShard, Index: sampleID % m.SamplesPerShard}
}

// Ingest writes ds into dir as a sharded on-disk dataset: train samples in
// ID order packed samplesPerShard to a shard, the validation split as one
// extra shard file, and the manifest. Training sample IDs must enumerate
// 0..N-1 (the synthetic generator's layout) so location stays arithmetic.
func Ingest(dir string, ds *data.Dataset, samplesPerShard int) (*Manifest, error) {
	if samplesPerShard <= 0 {
		return nil, fmt.Errorf("shard: Ingest: samplesPerShard must be positive, got %d", samplesPerShard)
	}
	if len(ds.Train) == 0 {
		return nil, fmt.Errorf("shard: Ingest: empty training set")
	}
	for i, s := range ds.Train {
		if s.ID != i {
			return nil, fmt.Errorf("shard: Ingest: train sample %d has ID %d; IDs must enumerate 0..N-1", i, s.ID)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: Ingest: %w", err)
	}
	n := len(ds.Train)
	numShards := (n + samplesPerShard - 1) / samplesPerShard
	man := &Manifest{
		FormatVersion:   Version,
		Name:            ds.Name,
		NumSamples:      n,
		NumVal:          len(ds.Val),
		Classes:         ds.Classes,
		FeatureDim:      ds.FeatureDim,
		SampleBytes:     ds.SampleBytes,
		SamplesPerShard: samplesPerShard,
		NumShards:       numShards,
		ShardFileBytes:  make([]int64, numShards),
	}
	// The shard files and the validation file (file numShards) are encoded
	// and written on GOMAXPROCS workers, the validation file first because it
	// is the largest. Each file's bytes depend only on its own samples, so
	// the directory is the same whatever the schedule, and the error reported
	// is the lowest-numbered file's, as a serial loop's would be.
	files := numShards + 1
	errs := make([]error, files)
	var taken atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), files); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(taken.Add(1) - 1); j < files; j = int(taken.Add(1) - 1) {
				sh := (j + numShards) % files // numShards, 0, 1, ...
				if sh == numShards {
					man.ValFileBytes, errs[sh] = WriteShard(filepath.Join(dir, valFileName), sh, ds.Val)
					continue
				}
				lo := sh * samplesPerShard
				hi := min(lo+samplesPerShard, n)
				man.ShardFileBytes[sh], errs[sh] = WriteShard(Path(dir, sh), sh, ds.Train[lo:hi])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(b, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("shard: Ingest: %w", err)
	}
	return man, nil
}

// PFSOptions emulate the slow tier's service rate on top of the real
// files, so a laptop run exhibits the paper's PFS-vs-local gap at
// measurable magnitude. Zero values mean "no throttle" (the real device
// speed): the CLIs default to that, while the storage benchmarks and the
// perfmodel-validation test set rates mirroring a Lustre client.
type PFSOptions struct {
	// BytesPerSec caps the sustained fetch bandwidth (0 = unlimited).
	BytesPerSec float64
	// PerShardLatency is charged once per shard fetch — the metadata/open
	// cost (cluster.Machine.PFSMetadataCost's role).
	PerShardLatency time.Duration
}

// Dataset is an open ingested dataset: the manifest plus the fetch path of
// the "PFS" tier. Fetches read whole shard files and verify their CRC; the
// node-local cache tier (internal/store/cache) sits on top. Dataset is
// safe for concurrent use.
type Dataset struct {
	dir string
	man Manifest
	pfs PFSOptions
}

// OpenDataset opens an ingested dataset directory.
func OpenDataset(dir string) (*Dataset, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: OpenDataset: %w (is %s an ingested dataset? see cmd/plsingest)", err, dir)
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("shard: OpenDataset: parsing manifest: %w", err)
	}
	if man.FormatVersion != Version {
		return nil, fmt.Errorf("shard: OpenDataset: manifest format %d, want %d", man.FormatVersion, Version)
	}
	if man.NumShards <= 0 || man.SamplesPerShard <= 0 || man.NumSamples <= 0 ||
		len(man.ShardFileBytes) != man.NumShards ||
		(man.NumShards-1)*man.SamplesPerShard >= man.NumSamples ||
		man.NumShards*man.SamplesPerShard < man.NumSamples {
		return nil, fmt.Errorf("shard: OpenDataset: inconsistent manifest (shards=%d per=%d n=%d)",
			man.NumShards, man.SamplesPerShard, man.NumSamples)
	}
	return &Dataset{dir: dir, man: man}, nil
}

// SetPFSOptions installs the slow-tier emulation (benchmarks and model
// validation); call before any fetch.
func (d *Dataset) SetPFSOptions(o PFSOptions) { d.pfs = o }

// Manifest returns the dataset's manifest.
func (d *Dataset) Manifest() Manifest { return d.man }

// Dir returns the dataset directory.
func (d *Dataset) Dir() string { return d.dir }

// throttle sleeps off the emulated PFS service time not already spent.
func (d *Dataset) throttle(bytes int64, elapsed time.Duration) {
	target := d.pfs.PerShardLatency
	if d.pfs.BytesPerSec > 0 {
		target += time.Duration(float64(bytes) / d.pfs.BytesPerSec * float64(time.Second))
	}
	if target > elapsed {
		time.Sleep(target - elapsed)
	}
}

// FetchShard reads shard file shardID from the PFS tier, verifies it, and
// returns the raw image in a fresh buffer.
func (d *Dataset) FetchShard(shardID int) ([]byte, error) {
	sh, err := d.FetchShardInto(shardID, nil)
	if err != nil {
		return nil, err
	}
	return sh.buf, nil
}

// FetchShardInto is FetchShard into the caller's buffer (the cache tier's
// landing slot; nil allocates one): one read of exactly the manifest's
// byte count, verified and opened in place — the image is parsed once, and
// the Shard returned is that parse. This is the slow path the cache tier
// pays on a miss. The Shard aliases buf.
func (d *Dataset) FetchShardInto(shardID int, buf []byte) (*Shard, error) {
	if shardID < 0 || shardID >= d.man.NumShards {
		return nil, fmt.Errorf("shard: FetchShard: shard %d out of [0,%d)", shardID, d.man.NumShards)
	}
	want := d.man.ShardFileBytes[shardID]
	if buf == nil {
		buf = make([]byte, want)
	} else if int64(len(buf)) < want {
		return nil, fmt.Errorf("shard: FetchShard %d: buffer holds %d bytes, shard file has %d", shardID, len(buf), want)
	}
	start := time.Now()
	f, err := os.Open(Path(d.dir, shardID))
	if err != nil {
		return nil, fmt.Errorf("shard: FetchShard: %w", err)
	}
	defer f.Close()
	if st, err := f.Stat(); err != nil {
		return nil, fmt.Errorf("shard: FetchShard: %w", err)
	} else if st.Size() != want {
		return nil, fmt.Errorf("shard: FetchShard %d: file is %d bytes, manifest says %d: corrupt or truncated", shardID, st.Size(), want)
	}
	buf = buf[:want]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("shard: FetchShard %d: %w", shardID, err)
	}
	p, err := parse(buf)
	if err != nil {
		return nil, fmt.Errorf("shard: FetchShard %d: %w", shardID, err)
	}
	d.throttle(want, time.Since(start))
	return &Shard{p: p, buf: buf}, nil
}

// LoadVal reads and decodes the validation split (a one-time startup cost;
// validation data lives in RAM like the in-memory path's).
func (d *Dataset) LoadVal() ([]data.Sample, error) {
	sh, err := Open(filepath.Join(d.dir, valFileName))
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	return sh.Samples()
}

// Proxy builds the dataset-shaped view the trainer consumes: metadata plus
// the loaded validation split. Train stays empty — training samples are
// read through the cache tier, never resident all at once.
func (d *Dataset) Proxy() (*data.Dataset, error) {
	val, err := d.LoadVal()
	if err != nil {
		return nil, err
	}
	return &data.Dataset{
		Name:        d.man.Name,
		Val:         val,
		Classes:     d.man.Classes,
		FeatureDim:  d.man.FeatureDim,
		SampleBytes: d.man.SampleBytes,
	}, nil
}
