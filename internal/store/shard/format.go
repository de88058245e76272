// Package shard is the on-disk sample store: an immutable, sharded,
// checksummed file format standing in for the parallel file system tier of
// Section III-A, plus an in-place read path that serves zero-copy
// data.Sample views into a shard image (the cache tier's mapped slots).
//
// A shard file packs a contiguous run of samples:
//
//	offset 0   magic "PLSSHRD1" (8 bytes)
//	offset 8   version  uint32 (currently 1)
//	offset 12  shard ID uint32
//	offset 16  count    uint32 (samples in this shard)
//	offset 20  reserved uint32 (zero)
//	offset 24  dataLen  uint64 (bytes of the sample data region)
//	offset 32  reserved uint64 (zero)
//	offset 40  data region: count samples back to back, each in the
//	           data.Sample wire encoding (AppendEncode)
//	...        index region: count entries of {id u64, off u64, len u64}
//	           (24 bytes each; off is relative to the data region)
//	...        crc32c   uint32 (Castagnoli, over everything before it)
//
// The trailing CRC makes every shard self-verifying: Open rejects
// truncation and any bit flip anywhere in the file. Sample encodings start
// 4-byte aligned inside the data region (the 40-byte header and the
// 28-byte per-sample header are both multiples of 4, and features are
// float32), which is what lets the reader alias feature vectors straight
// out of the image instead of copying.
package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"plshuffle/internal/data"
)

const (
	// Magic identifies a shard file ("PLSSHRD1").
	Magic = "PLSSHRD1"
	// Version is the current format version.
	Version = 1

	headerLen = 40
	indexLen  = 24 // per-sample index entry
	footerLen = 4  // trailing CRC32C
)

// castagnoli is the CRC32C table (the checksum SSDs and modern filesystems
// use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Ref addresses one sample inside a sharded dataset: shard ID plus the
// sample's index within the shard. The corgi2 epoch plans are sequences of
// Refs.
type Ref struct {
	Shard int
	Index int
}

// EncodeShard serializes the samples as one shard file image (header, data
// region, index, trailing CRC32C).
func EncodeShard(shardID int, samples []data.Sample) ([]byte, error) {
	if shardID < 0 || shardID > 1<<31 {
		return nil, fmt.Errorf("shard: EncodeShard: shard ID %d out of range", shardID)
	}
	dataLen := 0
	for _, s := range samples {
		dataLen += s.WireSize()
	}
	total := headerLen + dataLen + len(samples)*indexLen + footerLen
	buf := make([]byte, 0, total)

	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shardID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(samples)))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(dataLen))
	buf = binary.LittleEndian.AppendUint64(buf, 0)

	offs := make([]uint64, len(samples))
	off := uint64(0)
	for i, s := range samples {
		offs[i] = off
		buf = s.AppendEncode(buf)
		off += uint64(s.WireSize())
	}
	for i, s := range samples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.ID))
		buf = binary.LittleEndian.AppendUint64(buf, offs[i])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.WireSize()))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf, nil
}

// WriteShard writes the samples as a shard file at path (atomically, via a
// temp file and rename) and returns the file's byte size. A failed write
// leaves no temp file behind.
func WriteShard(path string, shardID int, samples []data.Sample) (int64, error) {
	buf, err := EncodeShard(shardID, samples)
	if err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	err = os.WriteFile(tmp, buf, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("shard: WriteShard: %w", err)
	}
	return int64(len(buf)), nil
}

// parsed is the validated view of a shard image.
type parsed struct {
	shardID int
	count   int
	data    []byte // the data region
	index   []byte // the index region
}

// parse checks a full shard file image — magic, version, region bounds, the
// trailing CRC32C, and every index entry against its sample header — and
// returns region views into it. Open and FromBytes run it on every image and
// the PFS tier on every fetch, once, so a flipped bit or a truncated transfer
// never reaches the trainer.
func parse(buf []byte) (parsed, error) {
	if len(buf) < headerLen+footerLen {
		return parsed{}, fmt.Errorf("shard: file too short (%d bytes)", len(buf))
	}
	if string(buf[:8]) != Magic {
		return parsed{}, fmt.Errorf("shard: bad magic %q", buf[:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != Version {
		return parsed{}, fmt.Errorf("shard: unsupported version %d", v)
	}
	shardID := binary.LittleEndian.Uint32(buf[12:])
	count := binary.LittleEndian.Uint32(buf[16:])
	dataLen := binary.LittleEndian.Uint64(buf[24:])

	// Bounds before checksum: a hostile length must not index out of range.
	body := uint64(len(buf) - headerLen - footerLen)
	if dataLen > body || uint64(count) > (body-dataLen)/indexLen ||
		headerLen+dataLen+uint64(count)*indexLen+footerLen != uint64(len(buf)) {
		return parsed{}, fmt.Errorf("shard: inconsistent regions (count=%d dataLen=%d fileLen=%d)", count, dataLen, len(buf))
	}
	sum := binary.LittleEndian.Uint32(buf[len(buf)-footerLen:])
	if got := crc32.Checksum(buf[:len(buf)-footerLen], castagnoli); got != sum {
		return parsed{}, fmt.Errorf("shard: checksum mismatch (file %08x, computed %08x): corrupt or truncated", sum, got)
	}

	p := parsed{
		shardID: int(shardID),
		count:   int(count),
		data:    buf[headerLen : headerLen+dataLen],
		index:   buf[headerLen+dataLen : uint64(len(buf))-footerLen],
	}
	// Index entries must address well-formed sample encodings. The CRC
	// already proved the bytes are the writer's; this catches writer bugs
	// and keeps the per-read path free of bounds checks.
	for i := 0; i < p.count; i++ {
		id, off, n := p.entry(i)
		if off+n > uint64(len(p.data)) || n < sampleHeaderLen || n%4 != 0 || off%4 != 0 {
			return parsed{}, fmt.Errorf("shard: index entry %d out of bounds (off=%d len=%d data=%d)", i, off, n, len(p.data))
		}
		enc := p.data[off : off+n]
		if gotID := int64(binary.LittleEndian.Uint64(enc)); gotID != id {
			return parsed{}, fmt.Errorf("shard: index entry %d: id %d but sample header says %d", i, id, gotID)
		}
		feat := binary.LittleEndian.Uint32(enc[24:])
		if sampleHeaderLen+4*uint64(feat) != n {
			return parsed{}, fmt.Errorf("shard: index entry %d: %d features do not fill %d bytes", i, feat, n)
		}
	}
	return p, nil
}

// sampleHeaderLen mirrors the data.Sample wire header: ID, Label, Bytes
// (8 each) + feature count (4).
const sampleHeaderLen = 28

// entry returns index entry i as (sample ID, data-region offset, length).
func (p parsed) entry(i int) (id int64, off, n uint64) {
	e := p.index[i*indexLen:]
	return int64(binary.LittleEndian.Uint64(e)),
		binary.LittleEndian.Uint64(e[8:]),
		binary.LittleEndian.Uint64(e[16:])
}

// FileName returns the canonical shard file name for a shard ID.
func FileName(shardID int) string {
	return fmt.Sprintf("shard-%04d.pls", shardID)
}

// Path returns the canonical shard file path inside a dataset directory.
func Path(dir string, shardID int) string {
	return filepath.Join(dir, FileName(shardID))
}
