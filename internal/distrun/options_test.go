package distrun

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestArgsRoundTripEveryBoundFlag: a launcher hands Args() to its forked
// ranks, which parse them through Bind — every shared option must arrive
// intact, including the ones whose value is empty.
func TestArgsRoundTripEveryBoundFlag(t *testing.T) {
	want := Options{
		Dataset: "cifar-100", Model: "mlp", Strategy: "corgi2", Q: 0.25,
		DataDir: "/data/in 50", CacheBytes: 1 << 24, GroupEpochs: 5,
		Epochs: 7, Batch: 32, LR: 0.0125, Locality: 0.9, LARS: true, Seed: 1<<63 + 11,
		WireCompress: true, WireDedup: true, SampleEncoding: "fp16exact",
		AutoQ:   true,
		Timeout: 90 * time.Second, OnPeerFail: "degrade",
		CheckpointDir: "ckpt", CheckpointEvery: 2, Resume: true,
		MaxWorld: 6, TelemetryAddr: "127.0.0.1:9400", SaveWeights: "w.bin",
	}
	for _, o := range []Options{want, {}, DefaultOptions()} {
		got := DefaultOptions()
		fs := flag.NewFlagSet("worker", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		got.Bind(fs)
		if err := fs.Parse(o.Args()); err != nil {
			t.Fatalf("forked rank rejects %q: %v", o.Args(), err)
		}
		if got != o {
			t.Errorf("options changed crossing the fork:\n sent %+v\n got  %+v", o, got)
		}
	}
}

// TestBindTakesDefaultsFromReceiver: each flag's default is the receiver's
// field, so a caller that changes a field before Bind changes that flag's
// default.
func TestBindTakesDefaultsFromReceiver(t *testing.T) {
	o := DefaultOptions()
	o.Epochs = 15
	fs := flag.NewFlagSet("plsrun", flag.ContinueOnError)
	o.Bind(fs)
	if got := fs.Lookup("epochs").DefValue; got != "15" {
		t.Errorf("-epochs default %q, want 15", got)
	}
	if err := fs.Parse([]string{"-q", "0.3"}); err != nil {
		t.Fatal(err)
	}
	if o.Epochs != 15 || o.Q != 0.3 || o.OnPeerFail != "abort" {
		t.Errorf("parsed options %+v: want epochs 15, q 0.3, on-peer-fail abort", o)
	}
}

// TestStrategyGroupEpochs: the zero -group-epochs runs corgi2 with groups of
// one epoch, and a negative one is refused as Strategy.Validate refuses it
// instead of running as 1.
func TestStrategyGroupEpochs(t *testing.T) {
	for _, tc := range []struct {
		groupEpochs, want int
		refused           bool
	}{
		{0, 1, false},
		{4, 4, false},
		{-3, 0, true},
	} {
		s, err := Options{Strategy: "corgi2", GroupEpochs: tc.groupEpochs}.strategy()
		switch {
		case tc.refused && (err == nil || !strings.Contains(err.Error(), "must be at least 1 epoch")):
			t.Errorf("-group-epochs %d: got %v, want Strategy.Validate's refusal", tc.groupEpochs, err)
		case !tc.refused && err != nil:
			t.Errorf("-group-epochs %d: %v", tc.groupEpochs, err)
		case !tc.refused && s.GroupEpochs != tc.want:
			t.Errorf("-group-epochs %d runs groups of %d epochs, want %d", tc.groupEpochs, s.GroupEpochs, tc.want)
		}
	}
}

// TestREADMEFlagTableMatchesBind: the first column of README.md's "Flags"
// table names exactly the flags Bind registers, so a flag added to or
// removed from Bind without its row fails here.
func TestREADMEFlagTableMatchesBind(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n### Flags\n")
	if !ok {
		t.Fatal(`README.md has no "### Flags" section`)
	}
	flagName := regexp.MustCompile("`-([a-z0-9-]+)`")
	var documented []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		first := strings.Split(line, "|")[1]
		for _, m := range flagName.FindAllStringSubmatch(first, -1) {
			documented = append(documented, m[1])
		}
	}
	var bound []string
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	o := DefaultOptions()
	o.Bind(fs)
	fs.VisitAll(func(f *flag.Flag) { bound = append(bound, f.Name) })
	slices.Sort(documented)
	if !slices.Equal(documented, bound) {
		t.Errorf("README.md's Flags table names %d flags %v;\nOptions.Bind registers %d: %v", len(documented), documented, len(bound), bound)
	}
}
