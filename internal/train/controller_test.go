package train

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"plshuffle/internal/analysis"
	"plshuffle/internal/checkpoint"
	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/telemetry"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/transporttest"
)

// autoQConfig is the shared fixture for the controller suite: a skewed
// partition (high class locality) so the label-skew observation actually
// pushes the controller off its starting Q, giving the replay tests a
// non-trivial trajectory to pin.
func autoQConfig(t *testing.T, samples, workers int, q float64) Config {
	t.Helper()
	cfg := baseConfig(t, testDataset(t, samples, 4), workers, shuffle.Partial(q))
	cfg.PartitionLocality = 0.8
	cfg.AutoQ = true
	return cfg
}

// trajectory flattens the per-epoch controller decisions of a run.
func trajectory(epochs []EpochStats) []float64 {
	qs := make([]float64, 0, len(epochs))
	for _, es := range epochs {
		qs = append(qs, es.ControllerQ)
	}
	return qs
}

// TestControllerConfigValidation: a configuration the controller cannot run
// is refused by Validate, before the first epoch.
func TestControllerConfigValidation(t *testing.T) {
	ds := testDataset(t, 256, 4)
	good := baseConfig(t, ds, 4, shuffle.Partial(0.2))
	good.AutoQ = true
	if err := good.Validate(); err != nil {
		t.Fatalf("auto-Q config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(c *Config)
	}{
		{"auto-q-needs-pls", func(c *Config) { c.Strategy = shuffle.GlobalShuffling(); c.AutoQ = true }},
		{"auto-q-one-worker", func(c *Config) { c.AutoQ = true; c.Workers = 1 }},
		{"epochs-past-tag-layout", func(c *Config) { c.Epochs = maxEpochs }},
	}
	for _, tc := range cases {
		c := baseConfig(t, ds, 4, shuffle.Partial(0.2))
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestAutoQRefusesInvalidInputs: bad world shapes, starting fractions and
// empty observation sets error instead of deciding garbage — the world shape
// and starting Q at Validate, the rest at the root's step.
func TestAutoQRefusesInvalidInputs(t *testing.T) {
	ds := testDataset(t, 256, 4)
	for _, tc := range []struct {
		name   string
		mutate func(c *Config)
	}{
		{"n=0", func(c *Config) { empty := *ds; empty.Train = nil; c.Dataset = &empty }},
		{"m=1", func(c *Config) { c.Workers = 1 }},
		{"b=0", func(c *Config) { c.BatchSize = 0 }},
		{"q0=1.5", func(c *Config) { c.Strategy = shuffle.Partial(1.5) }},
	} {
		c := baseConfig(t, ds, 4, shuffle.Partial(0.25))
		c.AutoQ = true
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %s", tc.name)
		}
	}

	step := func(obs []float64) error {
		skew, comm := worstRank(obs)
		_, _, err := analysis.DecideQ(analysis.QSignal{
			N: 100, M: len(obs) / 2, B: 16, Q: 0.25, Skew: skew, CommRatio: comm,
		})
		return err
	}
	if err := step([]float64{0.01, 0.2, 0.01, 0.2, 0.01, 0.2, 0.01, 0.2}); err != nil {
		t.Fatalf("root step refused a valid signal: %v", err)
	}
	if err := step(nil); err == nil {
		t.Error("root step accepted an empty observation set")
	}
}

// TestWorstRank: the root decides on the worst rank of each axis, whichever
// rank that is and in whatever order the gather lists them.
func TestWorstRank(t *testing.T) {
	for _, tc := range []struct {
		name       string
		obs        []float64 // (skew, comm ratio) per rank, in gather order
		skew, comm float64
	}{
		{"one-rank", []float64{0.1, 0.7}, 0.1, 0.7},
		{"flat", []float64{0.2, 0.5, 0.2, 0.5, 0.2, 0.5}, 0.2, 0.5},
		{"axes-from-different-ranks", []float64{0.3, 0.1, 0.01, 2.5, 0.02, 0.2}, 0.3, 2.5},
		{"worst-rank-last", []float64{0.01, 0.2, 0.01, 0.2, 0.4, 0.9}, 0.4, 0.9},
		{"all-zero", []float64{0, 0, 0, 0}, 0, 0},
	} {
		skew, comm := worstRank(tc.obs)
		if skew != tc.skew || comm != tc.comm {
			t.Errorf("%s: worstRank = (%v, %v), want (%v, %v)", tc.name, skew, comm, tc.skew, tc.comm)
		}
	}
}

// TestQTrajectories replays canned multi-epoch observation traces through
// the root's step — worstRank, then analysis.DecideQ — with no live world,
// and pins the exact Q value and reason of every decision. Each step lands
// on the 1e-6 grid, so the trajectories compare against float64 literals.
func TestQTrajectories(t *testing.T) {
	const n, m, b = 50000, 4, 16
	flat := func(skew, comm float64, ranks int) []float64 {
		obs := make([]float64, 0, 2*ranks)
		for i := 0; i < ranks; i++ {
			obs = append(obs, skew, comm)
		}
		return obs
	}
	cases := []struct {
		name        string
		trace       [][]float64 // one epoch's gathered observations each
		wantQ       []float64
		wantReasons []string
	}{
		{
			// Exchange fully hidden, exposure representative: the
			// controller must not move a Q that is working.
			name:        "compute-bound",
			trace:       [][]float64{flat(0.01, 0.2, m), flat(0.015, 0.3, m), flat(0.01, 0.25, m)},
			wantQ:       []float64{0.25, 0.25, 0.25},
			wantReasons: []string{"hold", "hold", "hold"},
		},
		{
			// Modeled exchange cost above compute on every rank: walk Q
			// down a step per epoch until the floor, then report the clamp.
			name:        "comm-bound",
			trace:       [][]float64{flat(0.005, 2.5, m), flat(0.005, 2.5, m), flat(0.005, 2.5, m), flat(0.005, 2.5, m), flat(0.005, 2.5, m)},
			wantQ:       []float64{0.2, 0.15, 0.1, 0.05, 0.05},
			wantReasons: []string{"lower-hidden", "lower-hidden", "lower-hidden", "lower-hidden", "lower-clamp"},
		},
		{
			// One rank's exposure skews hard (the max governs even if the
			// others look fine): walk Q up to the ceiling, then clamp.
			name: "skewed-exposure",
			trace: [][]float64{
				{0.01, 0.2, 0.3, 0.2, 0.01, 0.2, 0.01, 0.2},
				flat(0.3, 0.2, m), flat(0.3, 0.2, m), flat(0.3, 0.2, m), flat(0.3, 0.2, m), flat(0.3, 0.2, m),
			},
			wantQ:       []float64{0.3, 0.35, 0.4, 0.45, 0.5, 0.5},
			wantReasons: []string{"raise-skew", "raise-skew", "raise-skew", "raise-skew", "raise-skew", "raise-clamp"},
		},
		{
			// A rank dies after epoch 1: the survivors keep deciding from
			// the same trajectory position — now under the survivors'
			// (larger) non-domination threshold and their skewed exposure.
			name:        "degraded-world",
			trace:       [][]float64{flat(0.01, 0.2, m), flat(0.01, 0.2, m), flat(0.1, 0.2, m-1), flat(0.1, 0.2, m-1)},
			wantQ:       []float64{0.25, 0.25, 0.3, 0.35},
			wantReasons: []string{"hold", "hold", "raise-skew", "raise-skew"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := 0.25
			for e, obs := range tc.trace {
				skew, comm := worstRank(obs)
				next, reason, err := analysis.DecideQ(analysis.QSignal{
					N: n, M: len(obs) / 2, B: b, Q: q, Skew: skew, CommRatio: comm,
				})
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if next != tc.wantQ[e] || reason != tc.wantReasons[e] {
					t.Fatalf("epoch %d: decision (%v, %q), want (%v, %q)", e, next, reason, tc.wantQ[e], tc.wantReasons[e])
				}
				q = next
			}
		})
	}
}

// TestAutoQClampsStartingQ: the trajectory starts at Strategy.Q clamped into
// the policy's range, so epoch 0 already respects the operator's bounds.
func TestAutoQClampsStartingQ(t *testing.T) {
	for _, tc := range []struct{ q0, want float64 }{
		{0.9, 0.5},   // above the default ceiling
		{0.01, 0.05}, // below the default floor
	} {
		cfg := autoQConfig(t, 256, 4, tc.q0)
		cfg.Epochs = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Epochs[0].ControllerQ; got != tc.want {
			t.Errorf("Strategy.Q %v: epoch 0 trained at q=%v, want %v", tc.q0, got, tc.want)
		}
	}
}

// TestQSchedulePinsPerEpochQ: the open-loop schedule is the replay harness
// the bitwise acceptance rests on, so first prove it does what it says —
// epoch e trains with schedule[min(e, len-1)], recorded in EpochStats.
func TestQSchedulePinsPerEpochQ(t *testing.T) {
	cfg := baseConfig(t, testDataset(t, 256, 4), 4, shuffle.Partial(0.3))
	cfg.Epochs = 4
	cfg.qSchedule = []float64{0.1, 0.3, 0.2} // shorter than Epochs: last entry holds
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.3, 0.2, 0.2}
	for e, es := range res.Epochs {
		if es.ControllerQ != want[e] {
			t.Errorf("epoch %d trained at q=%v, schedule says %v", e, es.ControllerQ, want[e])
		}
		if es.ControllerReason != ReasonSchedule {
			t.Errorf("epoch %d reason %q, want %q", e, es.ControllerReason, ReasonSchedule)
		}
	}
}

// TestAutoQSameSeedWorldsIdentical: two identically-seeded auto-Q worlds
// must decide the same trajectory and land on bitwise-identical weights —
// the controller adds no nondeterminism (all observations are modeled,
// never wall-clock).
func TestAutoQSameSeedWorldsIdentical(t *testing.T) {
	cfg := autoQConfig(t, 512, 4, 0.2)
	cfg.Epochs = 5
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Epochs {
		if a.Epochs[e].ControllerQ != b.Epochs[e].ControllerQ ||
			a.Epochs[e].ControllerReason != b.Epochs[e].ControllerReason {
			t.Fatalf("epoch %d decisions differ across identical runs: %v(%s) vs %v(%s)",
				e, a.Epochs[e].ControllerQ, a.Epochs[e].ControllerReason,
				b.Epochs[e].ControllerQ, b.Epochs[e].ControllerReason)
		}
	}
	requireBitwiseEqual(t, "same-seed auto-q weights", flatWeights(a.FinalParams), flatWeights(b.FinalParams))

	traj := trajectory(a.Epochs)
	moved := false
	for _, q := range traj {
		if q != traj[0] {
			moved = true
		}
	}
	if !moved {
		t.Errorf("controller never moved Q on a skewed partition; trajectory %v", traj)
	}
}

// TestAutoQMatchesScheduleReplayBitwise is the bitwise acceptance gate: the
// closed-loop run's decided trajectory, replayed open-loop through
// qSchedule, must reproduce the exact same weights — on inproc and with
// every frame (including the control round's collectives) crossing real TCP.
func TestAutoQMatchesScheduleReplayBitwise(t *testing.T) {
	backends := []transporttest.Backend{transporttest.Inproc()}
	if !testing.Short() {
		backends = append(backends, transporttest.TCP())
	}
	for _, b := range backends {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			const workers = 4
			cfg := autoQConfig(t, 384, workers, 0.2)
			cfg.Epochs = 4

			run := func(c Config) ([]float64, []float32) {
				t.Helper()
				var mu sync.Mutex
				var traj []float64
				var weights []float32
				err := b.Run(workers, func(comm *mpi.Comm) error {
					rr, err := RunRank(comm, c)
					if err != nil {
						return err
					}
					mu.Lock()
					defer mu.Unlock()
					if comm.Rank() == 0 {
						traj = trajectory(rr.Epochs)
						weights = flatWeights(rr.FinalParams)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return traj, weights
			}

			closedTraj, closedW := run(cfg)

			replay := cfg
			replay.AutoQ = false
			replay.qSchedule = closedTraj
			openTraj, openW := run(replay)

			for e := range closedTraj {
				if openTraj[e] != closedTraj[e] {
					t.Fatalf("epoch %d: schedule replayed q=%v, controller decided %v", e, openTraj[e], closedTraj[e])
				}
			}
			requireBitwiseEqual(t, b.Name()+" auto-q vs schedule replay", closedW, openW)
		})
	}
}

// TestAutoQCheckpointResumeBitwise: kill the run at an epoch boundary and
// resume from the snapshot — the controller section must replay the exact Q
// trajectory, and the resumed world's weights must be bitwise identical to
// a world that never stopped. This is why the controller steps at the FINAL
// boundary too: the stopped run's last snapshot already carries the
// decision the uninterrupted run made there.
func TestAutoQCheckpointResumeBitwise(t *testing.T) {
	const epochs = 6
	mk := func() Config {
		cfg := autoQConfig(t, 512, 4, 0.2)
		cfg.Epochs = epochs
		return cfg
	}

	ref, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := mk()
	first.Epochs = epochs / 2
	first.CheckpointDir = dir
	first.CheckpointEvery = epochs / 2
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(checkpoint.Dir(dir, epochs/2), checkpoint.ManifestName)); err != nil {
		t.Fatalf("interrupted run left no complete snapshot: %v", err)
	}

	resumed := mk()
	resumed.CheckpointDir = dir
	resumed.Resume = true
	resRes, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(resRes.Epochs) != epochs-epochs/2 {
		t.Fatalf("resumed run recorded %d epochs, want %d", len(resRes.Epochs), epochs-epochs/2)
	}
	refTail := trajectory(ref.Epochs[epochs/2:])
	resTraj := trajectory(resRes.Epochs)
	for e := range refTail {
		if resTraj[e] != refTail[e] {
			t.Fatalf("resumed epoch %d trained at q=%v, uninterrupted run used %v (tail %v vs %v)",
				epochs/2+e, resTraj[e], refTail[e], resTraj, refTail)
		}
	}
	requireBitwiseEqual(t, "auto-q resume", flatWeights(ref.FinalParams), flatWeights(resRes.FinalParams))
}

// TestAutoQChaosSoak: a rank dies mid-exchange while the controller is
// live. The survivors must recover (degrade), re-agree on the controller
// state over the new root's broadcast, keep deciding in lockstep — same
// post-recovery trajectory, bitwise-identical weights — finish every epoch,
// and leak no goroutines.
func TestAutoQChaosSoak(t *testing.T) {
	backends := []struct {
		name string
		mk   func(scripts []faultinject.Script, conns []*faultinject.Conn) transporttest.Backend
	}{
		{"inproc", func(s []faultinject.Script, c []*faultinject.Conn) transporttest.Backend {
			return transporttest.InprocWrapped("ctrl-chaos-inproc", chaosWrap(s, c))
		}},
	}
	if !testing.Short() {
		backends = append(backends, struct {
			name string
			mk   func(scripts []faultinject.Script, conns []*faultinject.Conn) transporttest.Backend
		}{"tcp", func(s []faultinject.Script, c []*faultinject.Conn) transporttest.Backend {
			return transporttest.TCPWrapped("ctrl-chaos-tcp", chaosWrap(s, c), chaosTCPConfig)
		}})
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			const (
				workers   = 4
				victim    = 2
				epochs    = 4
				killEpoch = 1
			)
			base := runtime.NumGoroutine()
			cfg := autoQConfig(t, 512, workers, 0.3)
			cfg.Epochs = epochs
			cfg.OnPeerFail = "degrade"

			scripts := chaosScripts(workers, victim, killEpoch, false)
			conns := make([]*faultinject.Conn, workers)
			b := be.mk(scripts, conns)

			rrs, errs := runChaosWorld(t, b, workers, cfg)

			if !errors.Is(errs[victim], faultinject.ErrCrashed) {
				t.Fatalf("victim rank %d: err %v, want injected crash", victim, errs[victim])
			}
			var survivors []*RankResult
			for r := 0; r < workers; r++ {
				if r == victim {
					continue
				}
				if errs[r] != nil {
					t.Fatalf("survivor rank %d failed: %v", r, errs[r])
				}
				if len(rrs[r].Epochs) != epochs {
					t.Fatalf("survivor rank %d recorded %d epochs, want %d", r, len(rrs[r].Epochs), epochs)
				}
				survivors = append(survivors, rrs[r])
			}

			// Post-recovery agreement: every survivor decided the same Q at
			// every boundary — the steady-state agreement and the recovery-time
			// one kept the controllers in lockstep.
			ref := trajectory(survivors[0].Epochs)
			for i, rr := range survivors[1:] {
				got := trajectory(rr.Epochs)
				for e := range ref {
					if got[e] != ref[e] {
						t.Fatalf("survivors 0 and %d disagree on epoch %d Q: %v vs %v (trajectories %v vs %v)",
							i+1, e, ref[e], got[e], ref, got)
					}
				}
			}
			// The epoch the death cut short carries the fraction it planned with
			// on every survivor, however early in it the failure surfaced (as
			// early as Scheduling, or in the boundary before it).
			for i, rr := range survivors {
				es := rr.Epochs[killEpoch]
				if !es.Disrupted && !es.Skipped {
					t.Errorf("survivor %d: epoch %d neither disrupted nor skipped: %+v", i, killEpoch, es)
				}
				if es.ControllerQ <= 0 || es.ControllerQ != ref[killEpoch] {
					t.Errorf("survivor %d: disrupted epoch %d recorded q=%v, want %v", i, killEpoch, es.ControllerQ, ref[killEpoch])
				}
			}
			last := survivors[0].Epochs[epochs-1]
			if last.ControllerQ <= 0 || last.ControllerReason == "" {
				t.Errorf("post-recovery controller state empty: q=%v reason=%q", last.ControllerQ, last.ControllerReason)
			}

			// Still exactly synchronous SGD: bitwise-identical weights.
			w0 := flatWeights(survivors[0].FinalParams)
			for i, rr := range survivors[1:] {
				requireBitwiseEqual(t, fmt.Sprintf("survivor %d weights", i+1), w0, flatWeights(rr.FinalParams))
			}
			waitGoroutines(t, base)
		})
	}
}

// TestAutoQReachesGSParityWithFewerBytes is the headline claim in
// miniature: on the easy synthetic task the self-tuned run must reach the
// same accuracy bar as global shuffling while moving far fewer bytes than
// GS's every-epoch PFS re-read — with no hand-picked Q.
func TestAutoQReachesGSParityWithFewerBytes(t *testing.T) {
	ds := testDataset(t, 512, 4)
	gsCfg := baseConfig(t, ds, 4, shuffle.GlobalShuffling())
	gsCfg.PartitionLocality = 0.8
	gs, err := Run(gsCfg)
	if err != nil {
		t.Fatal(err)
	}
	autoCfg := baseConfig(t, ds, 4, shuffle.Partial(0.2))
	autoCfg.PartitionLocality = 0.8
	autoCfg.AutoQ = true
	auto, err := Run(autoCfg)
	if err != nil {
		t.Fatal(err)
	}

	if gs.FinalValAcc < 0.9 {
		t.Fatalf("GS reference failed to learn: %v", gs.FinalValAcc)
	}
	if auto.FinalValAcc < 0.9 {
		t.Errorf("auto-Q accuracy %v below the 0.9 GS-parity bar (GS got %v)", auto.FinalValAcc, gs.FinalValAcc)
	}
	var gsBytes, autoBytes int64
	for _, es := range gs.Epochs {
		gsBytes += es.PFSReadBytes
	}
	for _, es := range auto.Epochs {
		autoBytes += es.ExchangeBytes
	}
	if gsBytes == 0 {
		t.Fatal("GS recorded no PFS reads; byte accounting broken")
	}
	if autoBytes == 0 || autoBytes >= gsBytes {
		t.Errorf("auto-Q moved %d bytes vs GS's %d; want strictly fewer (and non-zero)", autoBytes, gsBytes)
	}
}

// TestControllerTelemetryScrape: the decided trajectory must be scrape-able
// — pls_controller_q ends at the final decision and the per-reason decision
// counters sum to one decision per epoch boundary.
func TestControllerTelemetryScrape(t *testing.T) {
	const (
		n      = 2
		epochs = 3
	)
	cfg := autoQConfig(t, 256, n, 0.2)
	cfg.Epochs = epochs
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg

	rrs, _, cleanup := runTelemetryWorld(t, transporttest.Inproc(), n, -1, cfg)
	defer cleanup()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, buf.String())
	for r := 0; r < n; r++ {
		rl := fmt.Sprintf(`rank="%d"`, r)
		// The gauge ends at the decision for the (never-run) next epoch, one
		// controllerStep past the last recorded EpochStats — so just pin its
		// presence and clamp range here; the exact trajectory is pinned via
		// EpochStats above.
		got, ok := m[`pls_controller_q{`+rl+`}`]
		if !ok {
			t.Fatalf("rank %d: no pls_controller_q series", r)
		}
		if got <= 0 || got > 1 {
			t.Errorf("rank %d: pls_controller_q=%v outside (0,1]", r, got)
		}
		var decisions float64
		for _, reason := range append(analysis.QReasons(), ReasonSchedule) {
			decisions += m[`pls_controller_decisions_total{`+rl+`,reason="`+reason+`"}`]
		}
		if decisions != epochs {
			t.Errorf("rank %d: %v decisions recorded, want %d (one per boundary)", r, decisions, epochs)
		}
		if len(rrs[r].Epochs) != epochs {
			t.Errorf("rank %d recorded %d epochs", r, len(rrs[r].Epochs))
		}
	}
}
