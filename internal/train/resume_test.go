package train

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"plshuffle/internal/checkpoint"
	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/transporttest"
)

// TestResumeBitwise is the tentpole gate: a run interrupted at an epoch
// boundary and resumed from its checkpoint must end bitwise identical to
// the uninterrupted run — for the PLS exchange with flat and overlapped
// gradient sync, for local and global shuffling, and for the corgi2 hybrid
// path.
func TestResumeBitwise(t *testing.T) {
	const epochs = 6
	corgiDir := ingestTestDataset(t, 512, 4, 32)
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"pls-flat", func(t *testing.T) Config {
			return baseConfig(t, testDataset(t, 512, 4), 4, shuffle.Partial(0.3))
		}},
		{"pls-overlap", func(t *testing.T) Config {
			cfg := baseConfig(t, testDataset(t, 512, 4), 4, shuffle.Partial(0.3))
			cfg.OverlapGrads = true
			return cfg
		}},
		{"local", func(t *testing.T) Config {
			return baseConfig(t, testDataset(t, 512, 4), 4, shuffle.LocalShuffling())
		}},
		{"global", func(t *testing.T) Config {
			return baseConfig(t, testDataset(t, 512, 4), 4, shuffle.GlobalShuffling())
		}},
		{"corgi2", func(t *testing.T) Config {
			return corgiConfig(corgiDir, 4)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.cfg(t)
			ref.Epochs = epochs
			refRes, err := Run(ref)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			first := tc.cfg(t)
			first.Epochs = epochs / 2
			first.CheckpointDir = dir
			first.CheckpointEvery = epochs / 2
			if _, err := Run(first); err != nil {
				t.Fatal(err)
			}
			snap := checkpoint.Dir(dir, epochs/2)
			if _, err := os.Stat(filepath.Join(snap, checkpoint.ManifestName)); err != nil {
				t.Fatalf("interrupted run left no complete snapshot: %v", err)
			}

			resumed := tc.cfg(t)
			resumed.Epochs = epochs
			resumed.CheckpointDir = dir
			resumed.Resume = true
			resRes, err := Run(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if len(resRes.Epochs) != epochs-epochs/2 {
				t.Fatalf("resumed run recorded %d epochs, want %d", len(resRes.Epochs), epochs-epochs/2)
			}
			requireBitwiseEqual(t, tc.name, flatWeights(refRes.FinalParams), flatWeights(resRes.FinalParams))
		})
	}
}

// TestConfigFingerprintStable pins configFingerprint's spelling: a snapshot
// already on disk resumes only while the digest of an unchanged
// configuration stays the same, so a Config field that goes must leave its
// slot in the description behind.
func TestConfigFingerprintStable(t *testing.T) {
	ds := &data.Dataset{Train: make([]data.Sample, 512), FeatureDim: 16, Classes: 4}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"pls", baseConfig(t, ds, 4, shuffle.Partial(0.3)), "84b8e879"},
		{"corgi2", corgiConfig("", 4), "b67f1fa7"},
	} {
		if got := configFingerprint(tc.cfg); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCheckpointCadence checks CheckpointEvery: only the owed epoch
// boundaries get snapshot directories, each with a verifiable manifest.
func TestCheckpointCadence(t *testing.T) {
	ds := testDataset(t, 256, 4)
	cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
	cfg.Epochs = 4
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 4; e++ {
		dir := checkpoint.Dir(cfg.CheckpointDir, e)
		_, err := os.Stat(dir)
		if e%2 == 0 {
			if err != nil {
				t.Fatalf("epoch boundary %d owed a snapshot: %v", e, err)
			}
			meta, err := checkpoint.ReadManifest(dir)
			if err != nil {
				t.Fatalf("snapshot %d manifest: %v", e, err)
			}
			if err := checkpoint.Verify(dir, meta); err != nil {
				t.Fatalf("snapshot %d does not verify: %v", e, err)
			}
			if meta.NextEpoch != e || meta.WorldSize != 4 || len(meta.Ranks) != 4 || meta.Group != nil {
				t.Fatalf("snapshot %d manifest wrong: %+v", e, meta)
			}
		} else if err == nil {
			t.Fatalf("epoch boundary %d wrote an unowed snapshot", e)
		}
	}
	latest, meta, err := checkpoint.LoadLatest(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != checkpoint.Dir(cfg.CheckpointDir, 4) || meta.NextEpoch != 4 {
		t.Fatalf("LoadLatest picked %s (next epoch %d), want the epoch-4 snapshot", latest, meta.NextEpoch)
	}
}

// TestResumeRejections covers the resume preflight: an empty checkpoint
// directory, a hyperparameter drift (fingerprint mismatch), a world size
// matching neither the snapshot's full nor live shape, and a store section
// naming a sample the dataset lacks must all fail loudly instead of
// silently diverging.
func TestResumeRejections(t *testing.T) {
	ds := testDataset(t, 256, 4)
	ckptDir := t.TempDir()
	seeded := baseConfig(t, ds, 4, shuffle.Partial(0.25))
	seeded.Epochs = 2
	seeded.CheckpointDir = ckptDir
	if _, err := Run(seeded); err != nil {
		t.Fatal(err)
	}

	t.Run("empty-dir", func(t *testing.T) {
		cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
		cfg.CheckpointDir = t.TempDir()
		cfg.Resume = true
		if _, err := Run(cfg); err == nil {
			t.Fatal("resume from an empty checkpoint directory succeeded")
		}
	})
	t.Run("fingerprint-drift", func(t *testing.T) {
		cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
		cfg.CheckpointDir = ckptDir
		cfg.Resume = true
		cfg.BaseLR = 0.05
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("resume with drifted hyperparameters: %v, want fingerprint mismatch", err)
		}
	})
	t.Run("wrong-world-size", func(t *testing.T) {
		cfg := baseConfig(t, ds, 2, shuffle.Partial(0.25))
		cfg.CheckpointDir = ckptDir
		cfg.Resume = true
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "world size") {
			t.Fatalf("resume with 2 ranks onto a 4-rank snapshot: %v, want world-size error", err)
		}
	})
	t.Run("store-id-out-of-range", func(t *testing.T) {
		n := len(ds.Train)
		if _, err := decodeIDs(encodeIDs([]int{0, n - 1}), n); err != nil {
			t.Fatalf("in-range store section refused: %v", err)
		}
		if _, err := decodeIDs(encodeIDs([]int{0, n}), n); err == nil {
			t.Fatalf("store section naming sample %d of a %d-sample dataset decoded", n, n)
		}
	})
	t.Run("resume-without-dir", func(t *testing.T) {
		cfg := baseConfig(t, ds, 4, shuffle.Partial(0.25))
		cfg.Resume = true
		if err := cfg.Validate(); err == nil {
			t.Fatal("Resume without CheckpointDir validated")
		}
	})
}

// TestDegradedCheckpointResume is the first satellite: a world that lost a
// rank checkpoints its post-shrink group into the manifest, and a relaunch
// with exactly the surviving count adopts the degraded partition (rank i
// takes live member i's state) instead of restoring the pre-failure one.
func TestDegradedCheckpointResume(t *testing.T) {
	const (
		workers   = 4
		victim    = 2
		epochs    = 3
		killEpoch = 1
		samples   = 512
	)
	base := runtime.NumGoroutine()
	ds := testDataset(t, samples, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(0.5))
	cfg.Epochs = epochs
	cfg.OnPeerFail = "degrade"
	cfg.CheckpointDir = t.TempDir()

	scripts := chaosScripts(workers, victim, killEpoch, false)
	conns := make([]*faultinject.Conn, workers)
	b := transporttest.InprocWrapped("ckpt-degrade", chaosWrap(scripts, conns))
	rrs, errs := runChaosWorld(t, b, workers, cfg)
	assertChaosSurvivors(t, rrs, errs, workers, victim, killEpoch, epochs, samples, 0.5)
	waitGoroutines(t, base)

	// The last snapshot was committed by the shrunken group and must say so.
	dir, meta, err := checkpoint.LoadLatest(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NextEpoch != epochs {
		t.Fatalf("latest snapshot is for epoch %d, want %d", meta.NextEpoch, epochs)
	}
	if meta.WorldSize != workers {
		t.Fatalf("snapshot world size %d, want %d", meta.WorldSize, workers)
	}
	live := meta.LiveRanks()
	if len(live) != workers-1 {
		t.Fatalf("snapshot group has %d live ranks, want %d: %+v", len(live), workers-1, meta.Group)
	}
	for _, r := range live {
		if r == victim {
			t.Fatalf("dead rank %d recorded live in %v", victim, live)
		}
	}
	var survivorIDs int
	for _, r := range live {
		sections, err := checkpoint.ReadRankFile(checkpoint.RankPath(dir, r))
		if err != nil {
			t.Fatalf("rank %d snapshot: %v", r, err)
		}
		ids, err := decodeIDs(sections["store"], len(ds.Train))
		if err != nil {
			t.Fatal(err)
		}
		survivorIDs += len(ids)
	}

	// Relaunching at the FULL pre-failure size must be refused: the dead
	// rank's unexchanged samples are gone.
	full := baseConfig(t, ds, workers, shuffle.Partial(0.5))
	full.Epochs = epochs + 2
	full.CheckpointDir = cfg.CheckpointDir
	full.Resume = true
	if _, err := Run(full); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("full-size resume of a degraded snapshot: %v, want degraded-group refusal", err)
	}

	// Relaunch with the surviving count: new rank i adopts live[i]'s state,
	// every rank enters the snapshot's generation, and the run completes on
	// the short stores.
	if meta.Generation == 0 {
		t.Fatal("snapshot of a shrunken group records generation 0")
	}
	resumed := baseConfig(t, ds, workers-1, shuffle.Partial(0.5))
	resumed.Epochs = epochs + 2
	resumed.CheckpointDir = cfg.CheckpointDir
	resumed.Resume = true
	err = mpi.Run(workers-1, func(c *mpi.Comm) error {
		rr, err := RunRank(c, resumed)
		if err != nil {
			return err
		}
		if len(rr.Epochs) != 2 {
			return fmt.Errorf("rank %d: degraded resume trained %d epochs, want 2", c.Rank(), len(rr.Epochs))
		}
		if g := c.Generation(); g != meta.Generation {
			return fmt.Errorf("rank %d resumed in generation %d, the snapshot's is %d", c.Rank(), g, meta.Generation)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosCrashMidCheckpoint is the second satellite: a rank dies exactly
// while reporting its checkpoint CRC to the root (the report gather). The
// half-born snapshot — a torn temp file, no manifest — must stay invisible,
// and a fresh world must resume from the previous complete snapshot and land
// bitwise on the uninterrupted run.
func TestChaosCrashMidCheckpoint(t *testing.T) {
	const (
		workers = 4
		victim  = 2
		epochs  = 4
		samples = 256
	)
	base := runtime.NumGoroutine()
	ds := testDataset(t, samples, 4)

	ref := baseConfig(t, ds, workers, shuffle.Partial(0.5))
	ref.Epochs = epochs
	refRes, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	cfg := baseConfig(t, ds, workers, shuffle.Partial(0.5))
	cfg.Epochs = epochs
	cfg.CheckpointDir = t.TempDir()

	// Crash the victim on its first frame of the epoch-2 boundary's report
	// gather: the CRC report sent AFTER its temp file was durably written but
	// BEFORE the rename — the torn-file window.
	scripts := make([]faultinject.Script, workers)
	conns := make([]*faultinject.Conn, workers)
	setAgreeHook(t, func(c *mpi.Comm, point string, epoch int) {
		if c.Rank() == victim && point == "checkpoint" && epoch == 2 {
			conns[victim].CrashOn(collTag(c.CollSeq(), 0), 1)
		}
	})
	b := transporttest.InprocWrapped("ckpt-crash", chaosWrap(scripts, conns))
	_, errs := runChaosWorld(t, b, workers, cfg)
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d survived a mid-checkpoint crash (abort policy)", r)
		}
	}
	if !errors.Is(errs[victim], faultinject.ErrCrashed) {
		t.Fatalf("victim failed with %v, want the scripted crash", errs[victim])
	}
	waitGoroutines(t, base)

	// Forensics: epoch-1's snapshot is complete; epoch-2's directory holds
	// the victim's torn temp file and no manifest.
	goodDir := checkpoint.Dir(cfg.CheckpointDir, 1)
	if meta, err := checkpoint.ReadManifest(goodDir); err != nil {
		t.Fatalf("epoch-1 snapshot manifest: %v", err)
	} else if err := checkpoint.Verify(goodDir, meta); err != nil {
		t.Fatalf("epoch-1 snapshot does not verify: %v", err)
	}
	tornDir := checkpoint.Dir(cfg.CheckpointDir, 2)
	if _, err := os.Stat(filepath.Join(tornDir, checkpoint.ManifestName)); !os.IsNotExist(err) {
		t.Fatalf("half-born snapshot has a manifest (err=%v)", err)
	}
	if _, err := os.Stat(checkpoint.RankPath(tornDir, victim) + ".tmp"); err != nil {
		t.Fatalf("victim's torn temp file missing: %v", err)
	}
	dir, meta, err := checkpoint.LoadLatest(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if dir != goodDir || meta.NextEpoch != 1 {
		t.Fatalf("LoadLatest picked %s (next epoch %d), want the complete epoch-1 snapshot", dir, meta.NextEpoch)
	}

	// Resume from the surviving snapshot; the final weights must be bitwise
	// the uninterrupted run's.
	resumed := baseConfig(t, ds, workers, shuffle.Partial(0.5))
	resumed.Epochs = epochs
	resumed.CheckpointDir = cfg.CheckpointDir
	resumed.Resume = true
	resRes, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(resRes.Epochs) != epochs-1 {
		t.Fatalf("resume trained %d epochs, want %d", len(resRes.Epochs), epochs-1)
	}
	requireBitwiseEqual(t, "crash-resume", flatWeights(refRes.FinalParams), flatWeights(resRes.FinalParams))
}
