package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"plshuffle/internal/data"
)

// serialIngest is Ingest as one loop of WriteShard calls, shard by shard and
// then the validation file, followed by the manifest: the reference the
// parallel ingest must match byte for byte.
func serialIngest(t *testing.T, dir string, ds *data.Dataset, per int) {
	t.Helper()
	n := len(ds.Train)
	numShards := (n + per - 1) / per
	man := Manifest{FormatVersion: Version, Name: ds.Name, NumSamples: n, NumVal: len(ds.Val),
		Classes: ds.Classes, FeatureDim: ds.FeatureDim, SampleBytes: ds.SampleBytes,
		SamplesPerShard: per, NumShards: numShards, ShardFileBytes: make([]int64, numShards)}
	for sh := 0; sh < numShards; sh++ {
		size, err := WriteShard(Path(dir, sh), sh, ds.Train[sh*per:min((sh+1)*per, n)])
		if err != nil {
			t.Fatal(err)
		}
		man.ShardFileBytes[sh] = size
	}
	size, err := WriteShard(filepath.Join(dir, valFileName), numShards, ds.Val)
	if err != nil {
		t.Fatal(err)
	}
	man.ValFileBytes = size
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestIngestMatchesSerialWrites: at every worker count the ingested
// directory holds exactly the files a serial WriteShard loop writes, byte
// for byte, the manifest included — with a short last shard, and with one
// shard only.
func TestIngestMatchesSerialWrites(t *testing.T) {
	ds := genDataset(t, 203)
	want := map[int]map[string][]byte{}
	for _, per := range []int{16, 256} {
		dir := t.TempDir()
		serialIngest(t, dir, ds, per)
		want[per] = readDir(t, dir)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for per, files := range want {
			dir := t.TempDir()
			if _, err := Ingest(dir, ds, per); err != nil {
				t.Fatal(err)
			}
			got := readDir(t, dir)
			if len(got) != len(files) {
				t.Fatalf("GOMAXPROCS=%d per=%d: %d files, want %d", procs, per, len(got), len(files))
			}
			for name, b := range files {
				if !bytes.Equal(got[name], b) {
					t.Errorf("GOMAXPROCS=%d per=%d: %s differs from the serial write", procs, per, name)
				}
			}
		}
	}
}

// TestIngestFailureLeavesNoTempFile: when shard files cannot be put in
// place, Ingest returns the lowest-numbered shard's error, and no .tmp
// file survives at any worker count.
func TestIngestFailureLeavesNoTempFile(t *testing.T) {
	ds := genDataset(t, 100)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		// A non-empty directory where a shard file belongs makes its rename fail.
		for _, sh := range []int{5, 2} {
			if err := os.MkdirAll(filepath.Join(Path(dir, sh), "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Ingest(dir, ds, 8)
		if err == nil || !strings.Contains(err.Error(), FileName(2)) {
			t.Fatalf("GOMAXPROCS=%d: Ingest returned %v, want shard 2's error", procs, err)
		}
		tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tmps) != 0 {
			t.Fatalf("GOMAXPROCS=%d: temp files left behind: %v", procs, tmps)
		}
	}
}
