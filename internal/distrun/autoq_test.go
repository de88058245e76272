package distrun

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

var trajLine = regexp.MustCompile(`controller q trajectory:([^\n]*)`)

// TestAutoQWorldsTCP is the distrun acceptance gate for the closed-loop
// controller: two identically-seeded 4-rank -auto-q worlds over real TCP
// must print the same decided Q trajectory and the same weights checksum —
// the broadcast decision makes the trajectory a pure function of (config,
// seed), never of wall-clock timing.
func TestAutoQWorldsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank TCP end-to-end in -short mode")
	}
	opts := Options{
		World:      4,
		Dataset:    "cifar-100",
		Model:      "mlp",
		Strategy:   "partial",
		Q:          0.2,
		AutoQ:      true,
		Epochs:     3,
		Batch:      16,
		LR:         0.05,
		Locality:   0.8,
		Seed:       11,
		Timeout:    2 * time.Minute,
		OnPeerFail: "abort",
	}

	run := func() (crc, traj string) {
		out, errs := runWorld(t, opts)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		m := trajLine.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("rank 0 report has no controller trajectory line:\n%s", out)
		}
		return weightsCRC(t, out), strings.TrimSpace(m[1])
	}

	crcA, trajA := run()
	crcB, trajB := run()
	if crcA != crcB {
		t.Errorf("same-seed auto-Q worlds disagree on weights: crc32c %s vs %s", crcA, crcB)
	}
	if trajA != trajB {
		t.Errorf("same-seed auto-Q worlds decided different trajectories:\n%s\n%s", trajA, trajB)
	}
	if trajA == "" || len(strings.Fields(trajA)) != opts.Epochs {
		t.Errorf("trajectory %q does not cover all %d epochs", trajA, opts.Epochs)
	}
}
