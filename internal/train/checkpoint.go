package train

// Deterministic checkpoint/resume (DESIGN.md §15). Every rank's replica
// state is a pure function of (config, seed, epoch) plus the mutable pieces
// this file snapshots: weights (batch-norm running statistics included),
// optimizer moments, the dropout RNG cursors, and the stored sample set of
// the local-family strategies. Restoring exactly those pieces and
// re-entering the training loop at the snapshot's NextEpoch reproduces the
// uninterrupted run bit for bit — the elastic CI gate compares weight
// checksums to prove it.
//
// Commit protocol (all ranks at the same epoch boundary):
//
//  1. Every rank encodes its sections and durably writes rank-R.snap.tmp
//     (write + fsync; checkpoint.WriteTemp).
//  2. The {crc32c, size} reports reach the group root through one Gather.
//  3. One mpi.Agree on "wrote ok": on an agreed 1 with nobody dead every rank
//     renames .tmp → .snap (checkpoint.Commit) and the root atomically writes
//     MANIFEST.json; otherwise nobody does.
//
// The manifest is the snapshot's commit point: LoadLatest ignores
// directories without one and verifies every listed rank file against its
// recorded checksum, so a crash anywhere in the protocol — a torn .tmp, a
// committed rank file with no manifest, a manifest racing a commit — leaves
// the previous complete snapshot as the one that loads.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"plshuffle/internal/analysis"
	"plshuffle/internal/checkpoint"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
)

var fingerprintTable = crc32.MakeTable(crc32.Castagnoli)

// configFingerprint digests the configuration facets that must match
// between the checkpointing run and a resuming one. World shape and the
// epoch horizon are deliberately excluded: a degraded world resumes with
// fewer ranks, and a resume may extend Epochs.
func configFingerprint(cfg Config) string {
	n := 0
	if cfg.Dataset != nil {
		n = len(cfg.Dataset.Train)
	}
	// LARS is spelled "opt=|lars=true|eta=0", the removed importance
	// sampling "is=false", the removed hierarchical exchange's group size
	// "egs=0", and the removed controller clamps "qmin=0|qmax=0": the
	// snapshots on disk say so, and a resume must match them byte for byte.
	opt, lars := cfg.Optimizer, cfg.Optimizer == "lars"
	if lars {
		opt = ""
	}
	desc := fmt.Sprintf("v2|n=%d|model=%+v|strat=%+v|b=%d|lr=%g|mom=%g|wd=%g|opt=%s|lars=%t|eta=0|seed=%d|is=false|enc=%s|sync=%t|full=%t|loc=%g|egs=0|autoq=%t|qmin=0|qmax=0|qsched=%v",
		n, cfg.Model, cfg.Strategy, cfg.BatchSize, cfg.BaseLR, cfg.Momentum,
		cfg.WeightDecay, opt, lars, cfg.Seed,
		cfg.SampleEncoding, cfg.SyncBatchNormStats,
		cfg.FullSyncBatchNorm, cfg.PartitionLocality,
		cfg.AutoQ, cfg.qSchedule)
	return fmt.Sprintf("%08x", crc32.Checksum([]byte(desc), fingerprintTable))
}

// checkpointDue reports whether a snapshot is owed before nextEpoch runs.
func (w *worker) checkpointDue(nextEpoch int) bool {
	if w.cfg.CheckpointDir == "" {
		return false
	}
	every := w.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	return nextEpoch%every == 0
}

// snapshotSections encodes this rank's replica state as named sections.
func (w *worker) snapshotSections() (map[string][]byte, error) {
	sections := make(map[string][]byte)
	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, w.model); err != nil {
		return nil, err
	}
	sections["weights"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := nn.SaveOptimizerState(&buf, w.opt); err != nil {
		return nil, err
	}
	sections["optimizer"] = append([]byte(nil), buf.Bytes()...)
	sections["rng"] = encodeRNG(nn.RNGStates(w.model))
	if w.local != nil {
		sections["store"] = encodeIDs(w.local.IDs())
	}
	if w.cfg.AutoQ {
		// The controller's trajectory position. The boundary decides the
		// NEXT epoch's Q before the snapshot is taken (train loop order), so
		// a resume plans its first epoch at exactly the fraction the
		// uninterrupted run would have used — the Q trajectory replays
		// bitwise from any snapshot.
		sections["controller"] = encodeControllerState(w.q, w.qReason)
	}
	return sections, nil
}

// saveCheckpoint runs the commit protocol described at the top of the file,
// under a Guard at an epoch boundary. A disk failure is fatal; a death
// returns a *transport.PeerError on every survivor alike (reform decides).
func (w *worker) saveCheckpoint(nextEpoch int) error {
	t0 := time.Now()
	dir := checkpoint.Dir(w.cfg.CheckpointDir, nextEpoch)
	path := checkpoint.RankPath(dir, w.comm.Rank())
	image, werr := w.writeSnapshot(dir, path)
	crc := checkpoint.CRC(image)
	group := w.comm.GroupRanks()
	root := group[0]
	testAgreeHook(w.comm, "checkpoint", nextEpoch)
	// A death that unwinds the gather votes 0, and still takes part.
	var reports []int
	gerr := w.comm.Guard(func() error {
		reports = mpi.Gather(w.comm, []int{int(crc), len(image)}, root)
		return nil
	})
	ok := 0
	if werr == nil && gerr == nil {
		ok = 1
	}
	agreed, dead, err := mpi.Agree(w.comm, []int{ok})
	switch {
	case err != nil:
		return err
	case werr != nil:
		return werr
	case len(dead) > 0:
		return mpi.FirstDead(w.comm, dead)
	case agreed[0] == 0:
		return fmt.Errorf("checkpoint before epoch %d abandoned: a member could not write its snapshot", nextEpoch)
	}
	if err := checkpoint.Commit(path); err != nil {
		return err
	}
	if w.comm.Rank() == root {
		meta := checkpoint.Meta{
			NextEpoch:   nextEpoch,
			WorldSize:   w.comm.Size(),
			Generation:  w.comm.Generation(),
			Seed:        w.cfg.Seed,
			Fingerprint: configFingerprint(w.cfg),
		}
		for i, r := range group {
			meta.Ranks = append(meta.Ranks, checkpoint.RankFile{Rank: r, CRC: uint32(reports[2*i]), Size: int64(reports[2*i+1])})
		}
		if len(group) != w.comm.Size() {
			// Satellite of DESIGN.md §15: a degraded world persists its
			// post-shrink group so a resume restores the shrunken partition
			// instead of silently reverting to the pre-failure one.
			meta.Group = group
		}
		if err := checkpoint.WriteManifest(dir, meta); err != nil {
			return err
		}
	}
	w.tm.CheckpointWrites.Add(1)
	w.tm.CheckpointNs.Add(int64(time.Since(t0)))
	w.tm.CheckpointBytes.Add(int64(len(image)))
	return nil
}

// writeSnapshot encodes this rank's sections and durably writes them to
// path's temp file (step 1), returning the image.
func (w *worker) writeSnapshot(dir, path string) ([]byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sections, err := w.snapshotSections()
	if err != nil {
		return nil, err
	}
	image := checkpoint.EncodeSnapshot(sections)
	return image, checkpoint.WriteTemp(path, image)
}

// resumeState is a loaded snapshot: the manifest and this rank's decoded
// sections, resolved by loadResume before the worker is built.
type resumeState struct {
	dir      string
	meta     checkpoint.Meta
	sections map[string][]byte
}

// loadResume finds the newest complete snapshot, checks the configuration
// fingerprint, and maps this rank onto a snapshot rank: a world of the
// snapshot's full size resumes rank-for-rank; a world of exactly the
// snapshot's live-group size resumes degraded (new rank i adopts Group[i]).
func loadResume(c *mpi.Comm, cfg Config) (*resumeState, error) {
	dir, meta, err := checkpoint.LoadLatest(cfg.CheckpointDir)
	if err != nil {
		return nil, err
	}
	if fp := configFingerprint(cfg); meta.Fingerprint != fp {
		return nil, fmt.Errorf("train: resume: snapshot fingerprint %s does not match this run's %s (different dataset, model, or hyperparameters?)", meta.Fingerprint, fp)
	}
	live := meta.LiveRanks()
	var snapRank int
	switch c.Size() {
	case meta.WorldSize:
		if meta.Group != nil {
			// The snapshot world was degraded: resuming at full world size
			// would hand the dead ranks' slots state that no longer exists.
			return nil, fmt.Errorf("train: resume: snapshot has a degraded group of %d/%d ranks; relaunch %d ranks (rank i adopts group member i's state)", len(live), meta.WorldSize, len(live))
		}
		snapRank = c.Rank()
	case len(live):
		snapRank = live[c.Rank()]
	default:
		return nil, fmt.Errorf("train: resume: world size %d matches neither the snapshot's world size %d nor its live group of %d", c.Size(), meta.WorldSize, len(live))
	}
	sections, err := checkpoint.ReadRankFile(checkpoint.RankPath(dir, snapRank))
	if err != nil {
		return nil, err
	}
	return &resumeState{dir: dir, meta: meta, sections: sections}, nil
}

// applyResume restores the in-memory replica state from a loaded snapshot.
// The store restore happened during staging (newWorker); everything here is
// layered onto the freshly built model and optimizer.
func (w *worker) applyResume(rs *resumeState) error {
	sec := func(name string) ([]byte, error) {
		b, ok := rs.sections[name]
		if !ok {
			return nil, fmt.Errorf("train: resume: snapshot missing %q section", name)
		}
		return b, nil
	}
	wb, err := sec("weights")
	if err != nil {
		return err
	}
	if err := nn.LoadWeights(bytes.NewReader(wb), w.model); err != nil {
		return fmt.Errorf("train: resume: %w", err)
	}
	ob, err := sec("optimizer")
	if err != nil {
		return err
	}
	if err := nn.LoadOptimizerState(bytes.NewReader(ob), w.opt); err != nil {
		return fmt.Errorf("train: resume: %w", err)
	}
	rb, err := sec("rng")
	if err != nil {
		return err
	}
	states, err := decodeRNG(rb)
	if err != nil {
		return err
	}
	if err := nn.SetRNGStates(w.model, states); err != nil {
		return fmt.Errorf("train: resume: %w", err)
	}
	if rs.meta.NextEpoch >= w.cfg.Epochs {
		return fmt.Errorf("train: resume: snapshot is already at epoch %d of %d — nothing left to train (raise Epochs to extend the run)",
			rs.meta.NextEpoch, w.cfg.Epochs)
	}
	if w.cfg.AutoQ {
		cb, err := sec("controller")
		if err != nil {
			return err
		}
		q, reason, err := decodeControllerState(cb)
		if err != nil {
			return err
		}
		w.setQ(q, reason)
	}
	w.startEpoch = rs.meta.NextEpoch
	if g := rs.meta.Generation; g > 0 {
		if err := w.comm.EnterGeneration(g); err != nil {
			return fmt.Errorf("train: resume: %w", err)
		}
	}
	if rs.meta.Group != nil {
		w.shortData = true
	}
	return nil
}

// --- section encodings (all little-endian, length-prefixed) ---

func encodeIDs(ids []int) []byte {
	buf := make([]byte, 4+8*len(ids))
	binary.LittleEndian.PutUint32(buf, uint32(len(ids)))
	for i, id := range ids {
		binary.LittleEndian.PutUint64(buf[4+8*i:], uint64(id))
	}
	return buf
}

// decodeIDs decodes a snapshot's stored sample IDs, refusing any outside
// [0, n): the snapshot is outside input.
func decodeIDs(b []byte, n int) ([]int, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("train: resume: truncated store section (%d bytes)", len(b))
	}
	count := int(binary.LittleEndian.Uint32(b))
	if len(b) != 4+8*count {
		return nil, fmt.Errorf("train: resume: store section is %d bytes, want %d for %d ids", len(b), 4+8*count, count)
	}
	ids := make([]int, count)
	for i := range ids {
		id := binary.LittleEndian.Uint64(b[4+8*i:])
		if id >= uint64(n) {
			return nil, fmt.Errorf("train: resume: store section names sample %d, but the dataset has %d", id, n)
		}
		ids[i] = int(id)
	}
	return ids, nil
}

func encodeRNG(states [][4]uint64) []byte {
	buf := make([]byte, 4+32*len(states))
	binary.LittleEndian.PutUint32(buf, uint32(len(states)))
	for i, st := range states {
		for j, v := range st {
			binary.LittleEndian.PutUint64(buf[4+32*i+8*j:], v)
		}
	}
	return buf
}

func decodeRNG(b []byte) ([][4]uint64, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("train: resume: truncated rng section (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) != 4+32*n {
		return nil, fmt.Errorf("train: resume: rng section is %d bytes, want %d for %d states", len(b), 4+32*n, n)
	}
	states := make([][4]uint64, n)
	for i := range states {
		for j := 0; j < 4; j++ {
			states[i][j] = binary.LittleEndian.Uint64(b[4+32*i+8*j:])
		}
	}
	return states, nil
}

// encodeControllerState serializes the controller's trajectory position:
// the exchange fraction's exact float64 bits plus the canonical reason code
// of the decision that set it (analysis.ReasonCode).
func encodeControllerState(q float64, reason string) []byte {
	buf := make([]byte, 9)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(q))
	buf[8] = analysis.ReasonCode(reason)
	return buf
}

func decodeControllerState(b []byte) (float64, string, error) {
	if len(b) != 9 {
		return 0, "", fmt.Errorf("train: resume: controller section is %d bytes, want 9", len(b))
	}
	q := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if q < 0 || q > 1 || q != q {
		return 0, "", fmt.Errorf("train: resume: controller fraction %v out of [0,1]", q)
	}
	return q, analysis.ReasonFromCode(b[8]), nil
}
