// Package checkpoint implements the on-disk format of the elastic trainer's
// snapshots (DESIGN.md §15): one directory per snapshot containing a
// CRC-checksummed, versioned file per rank plus a JSON manifest that rank 0
// commits last. Every file, the manifest included, is written to a temp
// name and fsynced, then renamed into place and its directory fsynced, so a
// crash at any instant leaves either the previous complete snapshot or a
// torn temp file that loading ignores, never a half-written snapshot that
// parses.
//
// The commit protocol (driven by internal/train) is:
//
//  1. every rank encodes its sections and writes rank-<r>.snap.tmp (fsync);
//  2. every rank reports (crc32c, size) to rank 0 over the wire;
//  3. every rank renames its temp file into place;
//  4. rank 0, having gathered all reports, writes MANIFEST.json atomically;
//  5. a barrier releases the world back into training.
//
// A snapshot without a manifest, or whose files disagree with the manifest's
// checksums, is invisible to LoadLatest — the previous snapshot wins.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Version is the snapshot format version, stored in both the per-rank file
// magic and the manifest; either mismatching rejects the snapshot.
const Version = 1

// ManifestName is the snapshot directory's manifest file, whose atomic
// appearance is the snapshot's commit point.
const ManifestName = "MANIFEST.json"

// snapMagic identifies a per-rank snapshot file ("PLSC" + Version).
var snapMagic = [5]byte{'P', 'L', 'S', 'C', Version}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RankFile is one rank's entry in the manifest: the checksum and size the
// committed snapshot file must match.
type RankFile struct {
	Rank int    `json:"rank"`
	CRC  uint32 `json:"crc32c"`
	Size int64  `json:"size"`
}

// Meta is the manifest (MANIFEST.json), written atomically by rank 0 after
// every rank has durably written its snapshot file. It records everything a
// resume needs to rebuild the world shape before any rank state is read —
// including the post-shrink group of a degraded world, so a resume restores
// the degraded partition rather than silently reverting to the pre-failure
// one.
type Meta struct {
	Version   int `json:"version"`
	NextEpoch int `json:"next_epoch"` // first epoch the resumed run executes
	WorldSize int `json:"world_size"` // world size at snapshot time (rank name space)
	// Group lists the live world ranks at snapshot time, sorted; nil means
	// the full world [0, WorldSize). A degraded world (post-Shrink) has
	// len(Group) < WorldSize, and a resume must relaunch len(Group) ranks,
	// mapping new rank i onto Group[i]'s snapshot.
	Group      []int  `json:"group,omitempty"`
	Generation int    `json:"generation"` // collective-epoch salt at snapshot time
	Seed       uint64 `json:"seed"`
	// Fingerprint is an opaque digest of the run configuration (dataset,
	// model, strategy, Q, batch, ...); resume refuses a snapshot whose
	// fingerprint differs from the resuming run's.
	Fingerprint string     `json:"fingerprint"`
	Ranks       []RankFile `json:"ranks"`
}

// LiveRanks returns the manifest's group resolved to an explicit sorted
// slice ([0, WorldSize) when Group is nil).
func (m *Meta) LiveRanks() []int {
	if m.Group != nil {
		return m.Group
	}
	out := make([]int, m.WorldSize)
	for i := range out {
		out[i] = i
	}
	return out
}

// Dir returns the directory of the snapshot taken before nextEpoch under
// the checkpoint base directory.
func Dir(base string, nextEpoch int) string {
	return filepath.Join(base, fmt.Sprintf("ckpt-%08d", nextEpoch))
}

// RankPath returns the committed per-rank snapshot path inside a snapshot
// directory.
func RankPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%d.snap", rank))
}

// EncodeSnapshot serializes named sections into a self-verifying file
// image: magic | u64 payload length | payload | u32 crc32c over everything
// before it. Sections are sorted by name, so the image is deterministic.
func EncodeSnapshot(sections map[string][]byte) []byte {
	names := make([]string, 0, len(sections))
	for k := range sections {
		names = append(names, k)
	}
	sort.Strings(names)
	n := 4
	for _, name := range names {
		n += 4 + len(name) + 8 + len(sections[name])
	}
	buf := make([]byte, 0, len(snapMagic)+8+n+4)
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sections[name])))
		buf = append(buf, sections[name]...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf
}

// DecodeSnapshot parses and verifies a file image written by EncodeSnapshot.
// Any truncation, bit flip, or version mismatch returns an error.
func DecodeSnapshot(buf []byte) (map[string][]byte, error) {
	if len(buf) < len(snapMagic)+8+4+4 {
		return nil, fmt.Errorf("checkpoint: snapshot too short (%d bytes)", len(buf))
	}
	if [5]byte(buf[:5]) != snapMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %q (not a snapshot or wrong version)", buf[:5])
	}
	body, footer := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(footer); got != want {
		return nil, fmt.Errorf("checkpoint: crc mismatch (%08x != %08x): torn or corrupt snapshot", got, want)
	}
	payloadLen := binary.LittleEndian.Uint64(buf[5:13])
	if int(payloadLen) != len(body)-13 {
		return nil, fmt.Errorf("checkpoint: payload length %d does not match file size", payloadLen)
	}
	p := body[13:]
	if len(p) < 4 {
		return nil, fmt.Errorf("checkpoint: truncated section table")
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	sections := make(map[string][]byte, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 4 {
			return nil, fmt.Errorf("checkpoint: truncated section %d", i)
		}
		nameLen := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if nameLen > 1024 || int(nameLen) > len(p) {
			return nil, fmt.Errorf("checkpoint: implausible section name length %d", nameLen)
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		if len(p) < 8 {
			return nil, fmt.Errorf("checkpoint: truncated section %q", name)
		}
		dataLen := binary.LittleEndian.Uint64(p)
		p = p[8:]
		if dataLen > uint64(len(p)) {
			return nil, fmt.Errorf("checkpoint: section %q claims %d bytes, %d remain", name, dataLen, len(p))
		}
		sections[name] = p[:dataLen:dataLen]
		p = p[dataLen:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after sections", len(p))
	}
	return sections, nil
}

// CRC returns the crc32c a manifest records for a file image.
func CRC(image []byte) uint32 { return crc32.Checksum(image, castagnoli) }

// WriteTemp durably writes the image to path+".tmp" (fsync before return)
// without committing it: a crash after WriteTemp leaves a torn or complete
// temp file that loading never looks at. Commit renames it into place.
func WriteTemp(path string, image []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: WriteTemp: %w", err)
	}
	if _, err := f.Write(image); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: WriteTemp: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: WriteTemp: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: WriteTemp: %w", err)
	}
	return nil
}

// Commit renames path+".tmp" (written by WriteTemp) into place and fsyncs
// the containing directory so the rename is durable.
func Commit(path string) error {
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("checkpoint: Commit: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// ReadRankFile loads and verifies one committed per-rank snapshot.
func ReadRankFile(path string) (map[string][]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return DecodeSnapshot(buf)
}

// WriteManifest atomically commits the manifest, completing the snapshot.
func WriteManifest(dir string, meta Meta) error {
	meta.Version = Version
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: WriteManifest: %w", err)
	}
	path := filepath.Join(dir, ManifestName)
	if err := WriteTemp(path, append(b, '\n')); err != nil {
		return err
	}
	return Commit(path)
}

// ReadManifest loads and validates a snapshot directory's manifest.
func ReadManifest(dir string) (Meta, error) {
	var meta Meta
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return meta, fmt.Errorf("checkpoint: %w", err)
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		return meta, fmt.Errorf("checkpoint: parsing manifest in %s: %w", dir, err)
	}
	if meta.Version != Version {
		return meta, fmt.Errorf("checkpoint: manifest version %d, this build reads %d", meta.Version, Version)
	}
	if len(meta.Ranks) == 0 {
		return meta, fmt.Errorf("checkpoint: manifest in %s lists no ranks", dir)
	}
	return meta, nil
}

// Verify checks every rank file a manifest lists against its recorded
// checksum and size. It reads each file fully; a snapshot that passes
// Verify will load.
func Verify(dir string, meta Meta) error {
	for _, rf := range meta.Ranks {
		path := RankPath(dir, rf.Rank)
		buf, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if int64(len(buf)) != rf.Size {
			return fmt.Errorf("checkpoint: %s is %d bytes, manifest says %d", path, len(buf), rf.Size)
		}
		if got := CRC(buf); got != rf.CRC {
			return fmt.Errorf("checkpoint: %s crc %08x, manifest says %08x", path, got, rf.CRC)
		}
	}
	return nil
}

// LoadLatest scans the checkpoint base directory for the newest snapshot
// (highest NextEpoch) whose manifest is committed and whose rank files all
// verify. Torn temp files and manifest-less directories are skipped; if an
// otherwise-newest snapshot fails verification, older ones are tried. A
// base with no loadable snapshot returns os.ErrNotExist.
func LoadLatest(base string) (string, Meta, error) {
	entries, err := os.ReadDir(base)
	if err != nil {
		return "", Meta{}, fmt.Errorf("checkpoint: %w", err)
	}
	var epochs []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "ckpt-") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "ckpt-"))
		if err != nil {
			continue
		}
		epochs = append(epochs, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	var firstErr error
	for _, ep := range epochs {
		dir := Dir(base, ep)
		meta, err := ReadManifest(dir)
		if err == nil {
			err = Verify(dir, meta)
		}
		if err == nil {
			return dir, meta, nil
		}
		if firstErr == nil && !os.IsNotExist(err) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return "", Meta{}, fmt.Errorf("checkpoint: no loadable snapshot under %s (newest failure: %w)", base, firstErr)
	}
	return "", Meta{}, fmt.Errorf("checkpoint: no snapshot under %s: %w", base, os.ErrNotExist)
}

// syncDir fsyncs a directory so a rename within it is durable. Filesystems
// that refuse directory fsync (some CI overlays) are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
