package train

// Telemetry conformance (DESIGN.md §11): the observability plane must be a
// faithful witness, not an estimate. These tests scrape /metrics over real
// HTTP during and after live multi-rank runs and diff the scraped counters
// BITWISE against the run's own internal accounting — the scheduler's wire
// traffic, EpochStats.GradWireBytes, and the TCP transport's byte counters
// — and its phase times against EpochStats and the trace, which are all
// views of the same counters — plus the concurrency and zero-allocation
// guarantees the hot paths make.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/telemetry"
	"plshuffle/internal/trace"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

// parseMetrics reads a Prometheus text exposition into a map keyed by the
// full series line prefix, e.g. `pls_train_epoch{rank="0"}`.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func scrapeURL(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// runTelemetryWorld trains n ranks (one goroutine each) over the backend
// with a shared registry, returning per-rank results and the still-open
// comms; the caller owns cleanup. The world barriers before returning, so
// every counter is quiescent when the final scrape happens. victim (none when
// negative) is the one rank expected to fail.
func runTelemetryWorld(t *testing.T, b transporttest.Backend, n, victim int, cfg Config) ([]*RankResult, []*mpi.Comm, func()) {
	t.Helper()
	comms, cleanup, err := b.Open(n)
	if err != nil {
		t.Fatal(err)
	}
	rrs := make([]*RankResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = mpi.Execute(comms[rank], func(c *mpi.Comm) error {
				rr, err := RunRank(c, cfg)
				rrs[rank] = rr
				if err != nil {
					return err
				}
				c.Barrier()
				return nil
			})
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		cleanup()
		t.Fatal("telemetry world deadlocked")
	}
	for r, err := range errs {
		if (err != nil) != (r == victim) {
			cleanup()
			t.Fatalf("rank %d (victim %d): %v", r, victim, err)
		}
	}
	return rrs, comms, cleanup
}

// TestTelemetryConformanceTCP is the acceptance gate: a live 4-rank world
// over real TCP sockets, scraped over real HTTP mid-run and after
// completion, healthy and with one rank killed mid-exchange under degrade.
// The post-run scrape must match the run's internal accounting exactly —
// same int64s, no estimates:
//
//	pls_exchange_wire_bytes_total (sent+recv)  == Σ EpochStats.ExchangeWireBytes
//	pls_train_grad_wire_bytes_total            == Σ EpochStats.GradWireBytes
//	pls_train_phase_seconds_total{phase}       == Σ EpochStats.<phase>Time == Σ trace events
//	pls_train_gewu_{wait,comm}_seconds_total   == Σ EpochStats.GEWU{Wait,Comm}Time
//	pls_checkpoint_seconds_total               == Σ EpochStats.CheckpointTime == Σ trace events
//
// and, on the healthy world, whose counters are quiescent at the scrape:
//
//	pls_transport_bytes_total                  == transport.Stats() at scrape time
//	Σ_kind pls_transport_frames_by_kind_total  == pls_transport_frames_total
func TestTelemetryConformanceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank TCP conformance in -short mode")
	}
	t.Run("healthy", func(t *testing.T) { telemetryConformanceTCP(t, -1) })
	t.Run("degrade-kill", func(t *testing.T) { telemetryConformanceTCP(t, 2) })
}

func telemetryConformanceTCP(t *testing.T, victim int) {
	const (
		n         = 4
		epochs    = 3
		killEpoch = 1
		q         = 0.3
	)
	healthy := victim < 0
	ds := testDataset(t, 512, 4)
	cfg := baseConfig(t, ds, n, shuffle.Partial(q))
	cfg.Epochs = epochs
	cfg.OverlapGrads = true
	cfg.CheckpointDir = t.TempDir()
	rec := trace.NewRecorder()
	cfg.Trace = rec
	backend := transporttest.TCP()
	if !healthy {
		cfg.OnPeerFail = "degrade"
		backend = transporttest.TCPWrapped("tcp-kill",
			chaosWrap(chaosScripts(n, victim, killEpoch, false), make([]*faultinject.Conn, n)), chaosTCPConfig)
	}

	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	srv, err := telemetry.NewServer(telemetry.ServerConfig{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Mid-run scrapes: poll until the trainer's series appear, proving the
	// plane is live while training is in flight (not a post-hoc dump).
	sawLive := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(srv.URL() + "/metrics")
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if strings.Contains(string(body), "pls_train_epoch{") {
					sawLive <- true
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		sawLive <- false
	}()

	rrs, comms, cleanup := runTelemetryWorld(t, backend, n, victim, cfg)
	defer cleanup()
	if !<-sawLive {
		t.Error("never scraped a live pls_train_epoch series during the run")
	}

	m := parseMetrics(t, scrapeURL(t, srv.URL()+"/metrics"))
	events := rec.Events()
	disrupted := 0
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		rl := fmt.Sprintf(`rank="%d"`, r)

		// Phase times: one counter per phase, three views of it. The scrape
		// serves seconds; at these magnitudes the float round-trips to the
		// exact nanosecond count.
		scrapedNs := func(series string) time.Duration {
			v, ok := m[series]
			if !ok {
				t.Errorf("rank %d: series %s missing from the scrape", r, series)
			}
			return time.Duration(math.Round(v * 1e9))
		}
		for _, ph := range []struct {
			series, event string // event "" = the trace carries no such phase
			of            func(EpochStats) time.Duration
		}{
			{`pls_train_phase_seconds_total{phase="io",` + rl + `}`, trace.PhaseIO, func(e EpochStats) time.Duration { return e.IOTime }},
			{`pls_train_phase_seconds_total{phase="exchange",` + rl + `}`, trace.PhaseExchange, func(e EpochStats) time.Duration { return e.ExchangeTime }},
			{`pls_train_phase_seconds_total{phase="fwbw",` + rl + `}`, trace.PhaseFWBW, func(e EpochStats) time.Duration { return e.FWBWTime }},
			{`pls_train_phase_seconds_total{phase="gewu",` + rl + `}`, trace.PhaseGEWU, func(e EpochStats) time.Duration { return e.GEWUTime }},
			{`pls_train_phase_seconds_total{phase="validate",` + rl + `}`, trace.PhaseValidate, func(e EpochStats) time.Duration { return e.ValidateTime }},
			{`pls_checkpoint_seconds_total{` + rl + `}`, trace.PhaseCheckpoint, func(e EpochStats) time.Duration { return e.CheckpointTime }},
			{`pls_train_gewu_wait_seconds_total{` + rl + `}`, "", func(e EpochStats) time.Duration { return e.GEWUWaitTime }},
			{`pls_train_gewu_comm_seconds_total{` + rl + `}`, "", func(e EpochStats) time.Duration { return e.GEWUCommTime }},
		} {
			var fromStats, fromTrace time.Duration
			for _, e := range rrs[r].Epochs {
				fromStats += ph.of(e)
			}
			for _, ev := range events {
				if ev.Rank == r && ev.Phase == ph.event {
					fromTrace += ev.Duration
				}
			}
			if got := scrapedNs(ph.series); got != fromStats || fromStats <= 0 {
				t.Errorf("rank %d: %s scraped %d ns != Σ EpochStats %d ns (or zero)", r, ph.series, got, fromStats)
			}
			if ph.event != "" && fromTrace != fromStats {
				t.Errorf("rank %d: Σ %s trace events %d ns != Σ EpochStats %d ns", r, ph.event, fromTrace, fromStats)
			}
		}
		// An epoch cut short still reports the partial times it clocked, and
		// never a validate event: it did not validate.
		for _, e := range rrs[r].Epochs {
			if !e.Disrupted {
				continue
			}
			disrupted++
			if e.ValidateTime != 0 || e.IOTime <= 0 {
				t.Errorf("rank %d: disrupted epoch %d reports validate %v, io %v; want no validation and its partial I/O time", r, e.Epoch, e.ValidateTime, e.IOTime)
			}
			for _, ev := range events {
				if ev.Rank == r && ev.Epoch == e.Epoch && ev.Phase == trace.PhaseValidate {
					t.Errorf("rank %d: disrupted epoch %d recorded a validate event", r, e.Epoch)
				}
			}
		}

		// Exchange wire volume: scraped sent+recv vs the per-epoch sums the
		// run reported (both fed by the identical scheduler counters).
		var wantExchange int64
		var wantGrad int64
		for _, e := range rrs[r].Epochs {
			wantExchange += e.ExchangeWireBytes
			wantGrad += e.GradWireBytes
		}
		gotExchange := int64(m[`pls_exchange_wire_bytes_total{direction="sent",`+rl+`}`]) +
			int64(m[`pls_exchange_wire_bytes_total{direction="recv",`+rl+`}`])
		if gotExchange != wantExchange {
			t.Errorf("rank %d: scraped exchange wire bytes %d != accounted %d", r, gotExchange, wantExchange)
		}
		if got := int64(m[`pls_train_grad_wire_bytes_total{`+rl+`}`]); got != wantGrad {
			t.Errorf("rank %d: scraped grad wire bytes %d != accounted %d", r, got, wantGrad)
		}
		if wantExchange == 0 || wantGrad == 0 {
			t.Errorf("rank %d: zero wire traffic (exchange %d, grad %d); conformance check vacuous", r, wantExchange, wantGrad)
		}
		if !healthy {
			// Heartbeats keep the transport counters moving and the world
			// changed shape: the remaining identities are the healthy row's.
			if got := m[`pls_exchange_effective_q{`+rl+`}`]; got != q {
				t.Errorf("survivor %d: effective q %v, want the configured %v: the shrunk group plans over its live members", r, got, q)
			}
			continue
		}

		// Transport byte counters: scraped == Stats() right now (the world
		// barriered and heartbeats are off, so the counters are quiescent).
		st := comms[r].Transport().Stats()
		if got := int64(m[`pls_transport_bytes_total{direction="sent",`+rl+`}`]); got != st.BytesSent {
			t.Errorf("rank %d: scraped transport sent %d != Stats %d", r, got, st.BytesSent)
		}
		if got := int64(m[`pls_transport_bytes_total{direction="recv",`+rl+`}`]); got != st.BytesRecv {
			t.Errorf("rank %d: scraped transport recv %d != Stats %d", r, got, st.BytesRecv)
		}

		// Frames by kind vs the frame totals. The two families count at
		// different layers by design: frames_total is the app-frame view
		// (every frame the write loop ships; only DATA frames delivered to
		// the handler on receive), while frames_by_kind sees every wire
		// frame including the bootstrap hellos that bypass the write loop.
		// The exact relations:
		//
		//	frames_total{sent} == Σ_kind by_kind{sent} − by_kind{hello,sent}
		//	frames_total{recv} == by_kind{data,recv}
		byKind := func(dir, kind string) int64 {
			return int64(m[fmt.Sprintf(`pls_transport_frames_by_kind_total{direction=%q,kind=%q,%s}`, dir, kind, rl)])
		}
		var sentAll int64
		for _, kind := range []string{"data", "hello", "table", "bye", "ping"} {
			sentAll += byKind("sent", kind)
		}
		if got := int64(m[`pls_transport_frames_total{direction="sent",`+rl+`}`]); got != sentAll-byKind("sent", "hello") {
			t.Errorf("rank %d: frames_total{sent} %d != Σ by_kind %d − hello %d", r, got, sentAll, byKind("sent", "hello"))
		}
		if got := int64(m[`pls_transport_frames_total{direction="recv",`+rl+`}`]); got != byKind("recv", "data") {
			t.Errorf("rank %d: frames_total{recv} %d != by_kind{data,recv} %d", r, got, byKind("recv", "data"))
		}
		if byKind("sent", "hello") == 0 && byKind("recv", "hello") == 0 {
			t.Errorf("rank %d: no hello frames in either direction; kind attribution broken", r)
		}

		// Progress gauges at completion.
		if got := m[`pls_train_epoch{`+rl+`}`]; got != epochs-1 {
			t.Errorf("rank %d: final epoch gauge %v, want %d", r, got, epochs-1)
		}
		if got := m[`pls_train_epochs_total{`+rl+`}`]; got != epochs {
			t.Errorf("rank %d: epochs_total %v, want %d", r, got, epochs)
		}
		if got := m[`pls_train_arena_bytes{`+rl+`}`]; got <= 0 {
			t.Errorf("rank %d: arena bytes %v, want the step arena's capacity", r, got)
		}
		if got := m[`pls_train_samples_total{`+rl+`}`]; got < float64(epochs*len(ds.Train)/n) {
			t.Errorf("rank %d: samples_total %v, want ≥ %d", r, got, epochs*len(ds.Train)/n)
		}

		// Healthy world: the realized Q is the configured one and the mpi
		// sequence mirrors the scraped counter exactly.
		if got := m[`pls_exchange_effective_q{`+rl+`}`]; got != q {
			t.Errorf("rank %d: effective q %v, want %v (no degradation happened)", r, got, q)
		}
		if got := int64(m[`pls_mpi_collectives_total{`+rl+`}`]); got != int64(comms[r].CollSeq()) || got == 0 {
			t.Errorf("rank %d: scraped collectives %d != CollSeq %d (or zero)", r, got, comms[r].CollSeq())
		}
		if got := m[`pls_mpi_failed_peers{`+rl+`}`]; got != 0 {
			t.Errorf("rank %d: failed peers %v, want 0", r, got)
		}
	}
	if healthy != (disrupted == 0) {
		t.Errorf("%d disrupted epochs among the survivors (victim %d)", disrupted, victim)
	}
}

// TestTelemetryWireLeanConformanceTCP extends the conformance gate to the
// wire-lean exchange plane: a live 4-rank TCP world with compression,
// dedup, and fp16exact encoding all on, scraped over real HTTP after the
// run. Every scraped dedup and compression counter must equal the run's
// internal accounting bitwise — the same int64s the scheduler and the TCP
// transport report, no estimates.
func TestTelemetryWireLeanConformanceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank TCP conformance in -short mode")
	}
	const (
		n      = 4
		epochs = 6
		q      = 0.25
	)
	ds := fp16GridDataset(t, 384)
	cfg := baseConfig(t, ds, n, shuffle.Partial(q))
	cfg.Epochs = epochs
	cfg.WireDedup = true
	cfg.SampleEncoding = "fp16exact"

	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	srv, err := telemetry.NewServer(telemetry.ServerConfig{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	backend := transporttest.TCPWrapped("tcp-lean", nil,
		func(rank int, c *tcp.Config) { c.Compress = true })
	rrs, comms, cleanup := runTelemetryWorld(t, backend, n, -1, cfg)
	defer cleanup()

	m := parseMetrics(t, scrapeURL(t, srv.URL()+"/metrics"))
	var worldHits, worldRefFrames, worldZFrames int64
	for r := 0; r < n; r++ {
		rl := fmt.Sprintf(`rank="%d"`, r)

		// Dedup counters: the per-epoch sums the run reported and the scraped
		// cumulative series are fed by the same scheduler atomics.
		var wantHits, wantSaved int64
		for _, e := range rrs[r].Epochs {
			wantHits += int64(e.DedupHits)
			wantSaved += e.DedupBytesSaved
		}
		if got := int64(m[`pls_exchange_dedup_hits{`+rl+`}`]); got != wantHits {
			t.Errorf("rank %d: scraped dedup hits %d != accounted %d", r, got, wantHits)
		}
		if got := int64(m[`pls_exchange_bytes_saved{`+rl+`}`]); got != wantSaved {
			t.Errorf("rank %d: scraped bytes saved %d != accounted %d", r, got, wantSaved)
		}
		if wantHits > 0 && wantSaved <= 0 {
			t.Errorf("rank %d: %d dedup hits saved %d bytes; accounting broken", r, wantHits, wantSaved)
		}
		worldHits += wantHits

		// Compression counters: scraped == Stats() right now (the world
		// barriered, so the counters are quiescent).
		s := comms[r].Transport().Stats()
		raw, wire := s.CompressRaw, s.CompressWire
		if got := int64(m[`pls_transport_compress_raw_bytes_total{`+rl+`}`]); got != raw {
			t.Errorf("rank %d: scraped compress raw %d != Stats %d", r, got, raw)
		}
		if got := int64(m[`pls_transport_compress_wire_bytes_total{`+rl+`}`]); got != wire {
			t.Errorf("rank %d: scraped compress wire %d != Stats %d", r, got, wire)
		}
		if raw <= wire || wire <= 0 {
			t.Errorf("rank %d: compression never engaged (raw %d, wire %d)", r, raw, wire)
		}
		if got := m[`pls_transport_compression_ratio{`+rl+`}`]; got < 1 {
			t.Errorf("rank %d: compression ratio gauge %v < 1 with raw %d wire %d", r, got, raw, wire)
		}

		// Per-kind byte counters for the new kinds: scraped == Stats bitwise,
		// and the lean kinds actually carried traffic somewhere.
		for kind, name := range map[uint8]string{
			transport.KindDataZ:   "dataz",
			transport.KindDataRef: "dataref",
		} {
			sentKey := fmt.Sprintf(`pls_transport_frame_bytes_by_kind_total{direction="sent",kind=%q,%s}`, name, rl)
			if got := int64(m[sentKey]); got != s.SentBytesByKind[kind] {
				t.Errorf("rank %d: scraped %s %d != counter %d", r, sentKey, got, s.SentBytesByKind[kind])
			}
		}
		worldZFrames += s.SentByKind[transport.KindDataZ]
		worldRefFrames += s.SentByKind[transport.KindDataRef]
	}
	if worldHits == 0 {
		t.Error("no rank scored a dedup hit; the conformance check never saw the dedup plane live")
	}
	if worldZFrames == 0 {
		t.Error("no compressed frame crossed the world; the conformance check never saw KindDataZ live")
	}
	if worldRefFrames == 0 {
		t.Error("no reference frame crossed the world; the conformance check never saw KindDataRef live")
	}
}

// TestTelemetryScrapeUnderChaos is the concurrency guard (run under -race
// in CI): several goroutines hammer /metrics and /healthz over HTTP while a
// 4-rank inproc world trains under scripted faults and loses a rank
// mid-run. Afterward /healthz must report the dead peer with a 503 and the
// scraped effective Q must be the configured one: the shrunk group plans
// over its live members.
func TestTelemetryScrapeUnderChaos(t *testing.T) {
	const (
		workers   = 4
		victim    = 2
		q         = 0.5
		epochs    = 3
		killEpoch = 1
	)
	baseGoroutines := runtime.NumGoroutine()
	ds := testDataset(t, 512, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = epochs
	cfg.OnPeerFail = "degrade"

	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg

	scripts := chaosScripts(workers, victim, killEpoch, false)
	conns := make([]*faultinject.Conn, workers)
	b := transporttest.InprocWrapped("chaos-telemetry", chaosWrap(scripts, conns))

	comms, cleanup, err := b.Open(workers)
	if err != nil {
		t.Fatal(err)
	}
	// Health reflects survivor rank 0's failure registry, exactly as
	// distrun wires it.
	srv, err := telemetry.NewServer(telemetry.ServerConfig{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Health: func() telemetry.Health {
			fp := comms[0].FailedPeers()
			return telemetry.Health{OK: len(fp) == 0, Rank: 0, FailedPeers: fp}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Scrape hammer: 4 goroutines polling both endpoints for the whole run.
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	var scrapes atomic64
	for i := 0; i < 4; i++ {
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/healthz"} {
					resp, err := client.Get(srv.URL() + path)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						scrapes.add(1)
					}
				}
			}
		}()
	}

	rrs := make([]*RankResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = mpi.Execute(comms[rank], func(c *mpi.Comm) error {
				rr, err := RunRank(c, cfg)
				rrs[rank] = rr
				return err
			})
		}(r)
	}
	wg.Wait()

	// The victim must have failed; the survivors must have finished.
	if errs[victim] == nil {
		t.Fatal("victim survived the scripted crash")
	}
	for r := 0; r < workers; r++ {
		if r != victim && errs[r] != nil {
			t.Fatalf("survivor rank %d failed: %v", r, errs[r])
		}
	}

	// Post-kill plane state: 503 with the victim named, and the configured Q.
	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz after the kill = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), fmt.Sprintf("[%d]", victim)) {
		t.Errorf("/healthz does not name the dead rank %d: %s", victim, body)
	}
	m := parseMetrics(t, scrapeURL(t, srv.URL()+"/metrics"))
	for _, r := range []int{0, 1, 3} {
		rl := fmt.Sprintf(`rank="%d"`, r)
		if got := m[`pls_exchange_effective_q{`+rl+`}`]; got != q {
			t.Errorf("survivor %d: effective q %v, want the configured %v: the shrunk group plans over its live members", r, got, q)
		}
		if got := m[`pls_mpi_failed_peers{`+rl+`}`]; got != 1 {
			t.Errorf("survivor %d: failed peers gauge %v, want 1", r, got)
		}
	}

	close(stop)
	hammer.Wait()
	if scrapes.load() == 0 {
		t.Error("scrape hammer never completed a request; concurrency guard vacuous")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	cleanup()
	waitGoroutines(t, baseGoroutines)
}

// TestTelemetryBitwiseNeutral pins the observer-effect contract over the
// full 2×2 matrix {flat, overlap} × {telemetry off, on}: three epochs of
// PLS training must produce bitwise identical weights in all four cells —
// attaching the observability plane changes nothing about the computation.
func TestTelemetryBitwiseNeutral(t *testing.T) {
	ds := testDataset(t, 256, 4)
	weightsOf := func(overlap, instrumented bool) []float32 {
		cfg := baseConfig(t, ds, 4, shuffle.Partial(0.5))
		cfg.Epochs = 3
		cfg.OverlapGrads = overlap
		if instrumented {
			cfg.Telemetry = telemetry.NewRegistry() // fresh per run: rank series re-register
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []float32
		for _, p := range res.FinalParams {
			out = append(out, p.W...)
		}
		return out
	}
	ref := weightsOf(false, false)
	for _, tc := range []struct {
		name                  string
		overlap, instrumented bool
	}{
		{"flat+telemetry", false, true},
		{"overlap", true, false},
		{"overlap+telemetry", true, true},
	} {
		got := weightsOf(tc.overlap, tc.instrumented)
		if len(got) != len(ref) {
			t.Fatalf("%s: weight count %d != %d", tc.name, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: weight[%d] = %v != baseline %v — telemetry/overlap must be bitwise neutral",
					tc.name, i, got[i], ref[i])
			}
		}
	}
}

// TestTelemetryIterationOpsZeroAlloc pins the PR 2 invariant for the exact
// set of operations one instrumented training iteration adds: gauge stores
// and counter adds on registered series — including while a concurrent
// scraper is reading them — must allocate nothing.
func TestTelemetryIterationOpsZeroAlloc(t *testing.T) {
	skipIfRace(t)
	reg := telemetry.NewRegistry()
	tm := &telemetry.TrainMetrics{}
	tm.Register(reg, 0)

	// Concurrent scraper: sampling must not force the hot path to allocate.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.WritePrometheus(io.Discard)
			}
		}
	}()

	iteration := func() {
		// The per-iteration instrumentation of runEpoch, verbatim.
		tm.Iteration.SetInt(7)
		tm.IONs.Add(1000)
		tm.Samples.Add(16)
		tm.ExchangeNs.Add(1000)
		tm.FWBWNs.Add(1000)
		tm.GEWUNs.Add(1000)
		tm.GEWUWaitNs.Add(500)
		tm.GEWUCommNs.Add(800)
		tm.GradWireBytes.Add(4096)
	}
	iteration() // warm up
	if allocs := testing.AllocsPerRun(1000, iteration); allocs > 0 {
		t.Errorf("instrumented iteration ops allocate %.1f times per run, want 0", allocs)
	}
	close(stop)
	wg.Wait()
}

// skipIfRace skips allocation-regression tests under the race detector
// (see raceEnabled).
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// atomic64 is a tiny counter for test bookkeeping.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

var _ = transport.NumKinds // document the kind-partition dependency above
