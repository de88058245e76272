package distrun

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// pickBasePort reserves `count` consecutive localhost TCP ports and returns
// the base, so a port-offset telemetry world can bind rank r on base+r.
// There is an unavoidable close-to-rebind window; retry absorbs it.
func pickBasePort(t *testing.T, count int) int {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := ln.Addr().(*net.TCPAddr).Port
		lns := []net.Listener{ln}
		ok := base+count-1 <= 65535
		for p := base + 1; ok && p < base+count; p++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			lns = append(lns, l)
		}
		for _, l := range lns {
			l.Close()
		}
		if ok {
			return base
		}
	}
	t.Fatal("could not reserve a consecutive port range")
	return 0
}

// TestRunWorldWithTelemetry drives the full distrun stack end to end: a
// 3-rank world (one goroutine per rank, each calling Run exactly as plsrun
// -rank does) over real TCP, with the telemetry plane live on port-offset
// endpoints. While the run is in flight the test scrapes each rank's
// /metrics and /healthz and rank 0's /cluster/metrics, which must aggregate
// every rank's series under a single set of family headers.
func TestRunWorldWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank TCP + HTTP end-to-end in -short mode")
	}
	const world = 3
	base := pickBasePort(t, world)

	// Reserve the rendezvous race-free, like the launcher does.
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	opts := Options{
		World:         world,
		Rendezvous:    rln.Addr().String(),
		Dataset:       "cifar-100",
		Model:         "mlp",
		Strategy:      "partial",
		Q:             0.25,
		Epochs:        40,
		Batch:         16,
		LR:            0.05,
		Seed:          7,
		Timeout:       2 * time.Minute,
		OnPeerFail:    "abort",
		TelemetryAddr: fmt.Sprintf("127.0.0.1:%d", base),
	}

	var out bytes.Buffer
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
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
	runDone := make(chan struct{})
	go func() { wg.Wait(); close(runDone) }()

	// Mid-run probes. Poll until every rank's /metrics answers and the
	// cluster view carries all three ranks, or the run ends first.
	type probe struct {
		perRank  [world]bool
		healthz  [world]bool
		cluster  bool
		clusterN int
	}
	var pr probe
	client := &http.Client{Timeout: 2 * time.Second}
	get := func(url string) (int, string) {
		resp, err := client.Get(url)
		if err != nil {
			return 0, ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
poll:
	for {
		select {
		case <-runDone:
			break poll
		default:
		}
		for r := 0; r < world; r++ {
			if !pr.perRank[r] {
				if code, body := get(fmt.Sprintf("http://127.0.0.1:%d/metrics", base+r)); code == 200 &&
					strings.Contains(body, fmt.Sprintf(`pls_train_epoch{rank="%d"}`, r)) {
					pr.perRank[r] = true
				}
			}
			if !pr.healthz[r] {
				if code, body := get(fmt.Sprintf("http://127.0.0.1:%d/healthz", base+r)); code == 200 &&
					strings.Contains(body, `"ok":true`) {
					pr.healthz[r] = true
				}
			}
		}
		if !pr.cluster {
			if code, body := get(fmt.Sprintf("http://127.0.0.1:%d/cluster/metrics", base)); code == 200 {
				n := 0
				for r := 0; r < world; r++ {
					if strings.Contains(body, fmt.Sprintf(`pls_train_epoch{rank="%d"}`, r)) {
						n++
					}
				}
				if n == world && strings.Count(body, "# TYPE pls_train_epoch ") == 1 {
					pr.cluster = true
					pr.clusterN = n
				}
			}
		}
		all := pr.cluster
		for r := 0; r < world; r++ {
			all = all && pr.perRank[r] && pr.healthz[r]
		}
		if all {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-runDone

	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < world; r++ {
		if !pr.perRank[r] {
			t.Errorf("rank %d /metrics never answered with its own series during the run", r)
		}
		if !pr.healthz[r] {
			t.Errorf("rank %d /healthz never reported ok during the run", r)
		}
	}
	if !pr.cluster {
		t.Error("rank 0 /cluster/metrics never aggregated all ranks under deduplicated headers")
	}
	if !strings.Contains(out.String(), "sample balance OK") {
		t.Errorf("rank 0 report missing the balance check:\n%s", out.String())
	}

	// After the run every telemetry server is down: the ports must refuse.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if code, _ := get(fmt.Sprintf("http://127.0.0.1:%d/metrics", base)); code == 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Error("rank 0 telemetry server still answering after Run returned")
}

// TestTelemetryTargets pins the scrape-URL derivation, including the
// unspecified-host loopback substitution.
func TestTelemetryTargets(t *testing.T) {
	got := telemetryTargets("0.0.0.0:9100", 3)
	want := []string{"http://127.0.0.1:9100", "http://127.0.0.1:9101", "http://127.0.0.1:9102"}
	if len(got) != len(want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("targets[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if ts := telemetryTargets("192.168.1.5:9100", 2); ts[1] != "http://192.168.1.5:9101" {
		t.Fatalf("explicit host mangled: %v", ts)
	}
}

// TestOptionsStrategyValidation pins the CLI-facing error for an unknown
// strategy string.
func TestOptionsStrategyValidation(t *testing.T) {
	_, err := Options{Strategy: "bogus"}.strategy()
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want unknown-strategy naming bogus", err)
	}
	for _, s := range []string{"global", "local", "partial"} {
		if _, err := (Options{Strategy: s, Q: 0.1}).strategy(); err != nil {
			t.Fatalf("strategy %q rejected: %v", s, err)
		}
	}
}
