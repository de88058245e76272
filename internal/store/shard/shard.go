package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"

	"plshuffle/internal/data"
)

// Shard is an open, verified, read-only view of a shard image — a slot of
// the cache tier's mapped file, or a heap copy. Steady-state reads allocate
// nothing and copy at most once — into the caller's batch tensor. A Shard
// is safe for concurrent readers.
type Shard struct {
	p   parsed
	buf []byte // the image; nil after Close
}

// Open reads the shard file at path and verifies its checksum and index.
func Open(path string) (*Shard, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: Open: %w", err)
	}
	sh, err := FromBytes(buf)
	if err != nil {
		return nil, fmt.Errorf("shard: Open %s: %w", path, err)
	}
	return sh, nil
}

// FromBytes opens a shard from an in-memory image, in place. The image is
// retained; the caller must not mutate it while the shard is in use.
func FromBytes(buf []byte) (*Shard, error) {
	p, err := parse(buf)
	if err != nil {
		return nil, err
	}
	return &Shard{p: p, buf: buf}, nil
}

// Close drops the image. Samples previously viewed with View must not be
// used after Close.
func (sh *Shard) Close() error {
	sh.buf = nil
	sh.p = parsed{}
	return nil
}

// ID returns the shard's ID from its header.
func (sh *Shard) ID() int { return sh.p.shardID }

// Count returns the number of samples in the shard.
func (sh *Shard) Count() int { return sh.p.count }

// header decodes sample i's fixed header fields and returns its encoding.
func (sh *Shard) header(i int) (enc []byte, id, label int, sim int64, feat int, err error) {
	if i < 0 || i >= sh.p.count {
		return nil, 0, 0, 0, 0, fmt.Errorf("shard %d: sample index %d out of [0,%d)", sh.p.shardID, i, sh.p.count)
	}
	_, off, n := sh.p.entry(i)
	enc = sh.p.data[off : off+n]
	id = int(int64(binary.LittleEndian.Uint64(enc)))
	label = int(int64(binary.LittleEndian.Uint64(enc[8:])))
	sim = int64(binary.LittleEndian.Uint64(enc[16:]))
	feat = int(binary.LittleEndian.Uint32(enc[24:]))
	return enc, id, label, sim, feat, nil
}

// View returns sample i as a data.Sample whose Features alias the image
// when the host is little-endian (zero-copy; valid only until Close)
// and are decoded copies otherwise. Callers that need the sample beyond
// the shard's lifetime must Clone it.
func (sh *Shard) View(i int) (data.Sample, error) {
	enc, id, label, sim, feat, err := sh.header(i)
	if err != nil {
		return data.Sample{}, err
	}
	s := data.Sample{ID: id, Label: label, Bytes: sim}
	if feat > 0 {
		raw := enc[sampleHeaderLen:]
		if data.HostLittleEndian {
			// Feature bytes start 4-aligned (header and every sample length
			// are multiples of 4), so the alias is a legal []float32 view.
			s.Features = unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), feat)
		} else {
			s.Features = make([]float32, feat)
			for j := range s.Features {
				s.Features[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
			}
		}
	}
	return s, nil
}

// ReadInto copies sample i's features into feat (which must hold at least
// the sample's feature count) and returns its metadata. It is the
// batch-assembly hot path: zero allocations, one copy into the caller's
// tensor row.
func (sh *Shard) ReadInto(i int, feat []float32) (id, label int, sim int64, n int, err error) {
	enc, id, label, sim, n, err := sh.header(i)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if n > len(feat) {
		return 0, 0, 0, 0, fmt.Errorf("shard %d: sample %d has %d features, buffer holds %d", sh.p.shardID, i, n, len(feat))
	}
	if n == 0 {
		return id, label, sim, 0, nil
	}
	raw := enc[sampleHeaderLen:]
	if data.HostLittleEndian {
		src := unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n)
		copy(feat[:n], src)
	} else {
		for j := 0; j < n; j++ {
			feat[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
		}
	}
	return id, label, sim, n, nil
}

// Samples decodes every sample in the shard (copies, not views) — the
// ingest round-trip check and the validation-set loader use it; the
// training hot path uses ReadInto instead.
func (sh *Shard) Samples() ([]data.Sample, error) {
	out := make([]data.Sample, sh.p.count)
	for i := range out {
		v, err := sh.View(i)
		if err != nil {
			return nil, err
		}
		out[i] = v.Clone()
	}
	return out, nil
}
