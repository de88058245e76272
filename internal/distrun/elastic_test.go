package distrun

import (
	"bytes"
	"io"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// runWorld plays every member rank of opts' world as a goroutine (each
// calling Run exactly as plsrun -rank does) and returns rank 0's report plus
// the per-rank errors. extra ranks (joiners) are appended after the members.
func runWorld(t *testing.T, opts Options, extra ...Options) (string, []error) {
	t.Helper()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts.Rendezvous = rln.Addr().String()

	var out bytes.Buffer
	errs := make([]error, opts.World+len(extra))
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
	for i, jo := range extra {
		wg.Add(1)
		go func(slot int, o Options) {
			defer wg.Done()
			// Give the members a head start so the joiner's rendezvous hello
			// lands on a formed world (its bootstrap retries either way).
			time.Sleep(100 * time.Millisecond)
			o.Rendezvous = opts.Rendezvous
			errs[slot] = Run(o, io.Discard)
		}(opts.World+i, jo)
	}
	wg.Wait()
	return out.String(), errs
}

var crcLine = regexp.MustCompile(`weights crc32c=([0-9a-f]{8})`)

func weightsCRC(t *testing.T, report string) string {
	t.Helper()
	m := crcLine.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("rank 0 report has no weights crc32c line:\n%s", report)
	}
	return m[1]
}

// TestElasticResumeTCP is the distrun-level elastic gate: a 4-rank world
// over real TCP checkpoints every epoch, stops at the epoch-2 boundary, and
// a relaunched world resumes from the snapshot — the resumed run's weights
// checksum must equal an uninterrupted reference's, bitwise, across real
// processes-worth of transport. Then the same checkpoint directory carries
// the world through a growth: a 5th rank joins mid-run via -join and the
// grown world finishes with the full sample balance.
func TestElasticResumeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank TCP end-to-end in -short mode")
	}
	base := Options{
		World:      4,
		Dataset:    "cifar-100",
		Model:      "mlp",
		Strategy:   "partial",
		Q:          0.25,
		Epochs:     4,
		Batch:      16,
		LR:         0.05,
		Seed:       11,
		Timeout:    2 * time.Minute,
		OnPeerFail: "abort",
	}

	// Uninterrupted reference.
	refOut, errs := runWorld(t, base)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}
	refCRC := weightsCRC(t, refOut)

	// Interrupted run: train only the first two epochs, checkpointing at
	// every boundary, then stop — the state a killed world leaves behind.
	ckptDir := t.TempDir()
	interrupted := base
	interrupted.Epochs = 2
	interrupted.CheckpointDir = ckptDir
	if _, errs = runWorld(t, interrupted); errs[0] != nil || errs[1] != nil || errs[2] != nil || errs[3] != nil {
		t.Fatalf("interrupted run failed: %v", errs)
	}

	// Resume to the full horizon: bitwise identical to the reference.
	resumed := base
	resumed.CheckpointDir = ckptDir
	resumed.Resume = true
	resOut, errs := runWorld(t, resumed)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("resumed rank %d: %v", r, err)
		}
	}
	if got := weightsCRC(t, resOut); got != refCRC {
		t.Fatalf("resumed weights crc32c=%s, want the uninterrupted reference's %s", got, refCRC)
	}

	// Growth: relaunch the 4 members elastic (-max-world 5) and rendezvous a
	// 5th rank mid-run via -join. The grown world must finish at full size
	// with the dataset balanced across all five ranks.
	grown := base
	grown.Epochs = 30
	grown.MaxWorld = 5
	joiner := grown
	joiner.Join = true
	grownOut, errs := runWorld(t, grown, joiner)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("grown-world rank %d: %v", r, err)
		}
	}
	if !strings.Contains(grownOut, "5 ranks over tcp") {
		t.Errorf("grown world report does not show 5 ranks:\n%s", grownOut)
	}
	if !strings.Contains(grownOut, "sample balance OK") {
		t.Errorf("grown world report missing the balance check:\n%s", grownOut)
	}
}

// TestElasticOptionValidation pins the CLI-facing preflight errors.
func TestElasticOptionValidation(t *testing.T) {
	o := Options{World: 4, Dataset: "cifar-100", Model: "mlp", Strategy: "partial", Q: 0.1, Join: true, MaxWorld: 4}
	if err := Run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "max-world") {
		t.Fatalf("join without elastic capacity: err = %v, want -max-world guidance", err)
	}
	o = Options{World: 1, Dataset: "cifar-100", Model: "mlp", Strategy: "partial", Q: 0.1, Resume: true}
	if err := Run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "checkpoint-dir") {
		t.Fatalf("resume without checkpoint dir: err = %v, want -checkpoint-dir guidance", err)
	}
}
