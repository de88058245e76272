package distrun

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/store/shard"
)

// ingestCorgiDataset generates a learnable synthetic dataset and ingests it
// into a temp directory as the on-disk "PFS" tier, returning the directory
// and the largest shard's file size (the cache-budget unit).
func ingestCorgiDataset(t *testing.T) (dir string, maxShard int64) {
	t.Helper()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "corgi-distrun", NumSamples: 512, NumVal: 128, Classes: 4,
		FeatureDim: 16, ClassSep: 5, NoiseStd: 1.0, Bytes: 1000, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(t.TempDir(), "dataset")
	man, err := shard.Ingest(dir, ds, 32)
	if err != nil {
		t.Fatal(err)
	}
	return dir, man.MaxShardBytes()
}

// runCorgiWorld runs one full 4-rank corgi2 world over real TCP (one
// goroutine per rank, each calling Run exactly as plsrun -rank does) and
// returns rank 0's report.
func runCorgiWorld(t *testing.T, opts Options) string {
	t.Helper()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts.Rendezvous = rln.Addr().String()

	var out bytes.Buffer
	errs := make([]error, opts.World)
	var wg sync.WaitGroup
	for r := 0; r < opts.World; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o := opts
			o.Rank = rank
			w := io.Discard
			if rank == 0 {
				o.RendezvousListener = rln
				w = &out
			}
			errs[rank] = Run(o, w)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out.String()
}

var (
	weightsLine = regexp.MustCompile(`(?m)^weights crc32c=([0-9a-f]{8})$`)
	cacheLine   = regexp.MustCompile(`(?m)^cache: hits=(\d+) misses=(\d+) evictions=(\d+) prefetch=(\d+) bytes pfs-read=(\d+) bytes$`)
)

// TestCorgi2WorldDeterministicWithTelemetry is the acceptance run for the
// storage hierarchy: a real 4-rank TCP world training from an ingested
// on-disk dataset through the bounded cache tier under -strategy=corgi2.
// The same-seed world runs twice and must report bitwise-identical weights
// (the crc32c handle); the first run's live /metrics must expose the
// pls_store_* cache series while the ranks are training.
func TestCorgi2WorldDeterministicWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank TCP + on-disk storage end-to-end in -short mode")
	}
	const world = 4
	dir, maxShard := ingestCorgiDataset(t)
	base := pickBasePort(t, world)

	opts := Options{
		World:       world,
		Model:       "mlp",
		Strategy:    "corgi2",
		DataDir:     dir,
		CacheBytes:  3 * maxShard, // each rank holds 4 shards: evictions happen
		GroupEpochs: 3,            // several offline reshuffles across 12 epochs
		Epochs:      12,
		Batch:       16,
		LR:          0.05,
		Seed:        11,
		Timeout:     2 * time.Minute,
		OnPeerFail:  "abort",
	}

	// --- run 1: telemetry on, scraped mid-run ---
	first := func() string {
		o := opts
		o.TelemetryAddr = fmt.Sprintf("127.0.0.1:%d", base)
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		o.Rendezvous = rln.Addr().String()

		var out bytes.Buffer
		errs := make([]error, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ro := o
				ro.Rank = rank
				w := io.Discard
				if rank == 0 {
					ro.RendezvousListener = rln
					w = &out
				}
				errs[rank] = Run(ro, w)
			}(r)
		}
		runDone := make(chan struct{})
		go func() { wg.Wait(); close(runDone) }()

		// Live scrape: every rank's /metrics must expose its own cache-tier
		// series while the run is in flight.
		scraped := [world]bool{}
		client := &http.Client{Timeout: 2 * time.Second}
	poll:
		for {
			select {
			case <-runDone:
				break poll
			default:
			}
			all := true
			for r := 0; r < world; r++ {
				if scraped[r] {
					continue
				}
				resp, err := client.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", base+r))
				if err == nil {
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if strings.Contains(string(b), fmt.Sprintf(`pls_store_cache_hits_total{rank="%d"}`, r)) &&
						strings.Contains(string(b), fmt.Sprintf(`pls_store_pfs_read_bytes_total{rank="%d"}`, r)) {
						scraped[r] = true
						continue
					}
				}
				all = false
			}
			if all {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		<-runDone
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		for r := 0; r < world; r++ {
			if !scraped[r] {
				t.Errorf("rank %d /metrics never exposed the pls_store_* cache series during the run", r)
			}
		}
		return out.String()
	}()

	// The report must carry the storage tier's accounting: real cache hits
	// and real bytes pulled from the PFS tier.
	m := cacheLine.FindStringSubmatch(first)
	if m == nil {
		t.Fatalf("rank 0 report missing the cache line:\n%s", first)
	}
	if m[1] == "0" {
		t.Errorf("corgi2 world reported zero cache hits:\n%s", first)
	}
	if m[5] == "0" {
		t.Errorf("corgi2 world reported zero PFS read bytes:\n%s", first)
	}
	if !strings.Contains(first, "(ingested "+dir+")") {
		t.Errorf("report header does not name the ingested dataset:\n%s", first)
	}

	// --- run 2: same seed, no telemetry — weights must be bitwise equal ---
	second := runCorgiWorld(t, opts)

	w1 := weightsLine.FindStringSubmatch(first)
	w2 := weightsLine.FindStringSubmatch(second)
	if w1 == nil || w2 == nil {
		t.Fatalf("weights checksum line missing:\nrun1:\n%s\nrun2:\n%s", first, second)
	}
	if w1[1] != w2[1] {
		t.Fatalf("same-seed worlds diverged: weights crc32c %s vs %s", w1[1], w2[1])
	}
}

// TestCorgi2OptionsValidation pins the CLI-facing strategy plumbing.
func TestCorgi2OptionsValidation(t *testing.T) {
	s, err := (Options{Strategy: "corgi2", GroupEpochs: 4}).strategy()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "corgi2-g4" {
		t.Fatalf("strategy = %q, want corgi2-g4", got)
	}
	// GroupEpochs defaults to 1 so a bare -strategy=corgi2 just works.
	s, err = (Options{Strategy: "corgi2"}).strategy()
	if err != nil {
		t.Fatal(err)
	}
	if s.GroupEpochs != 1 {
		t.Fatalf("default GroupEpochs = %d, want 1", s.GroupEpochs)
	}
}
