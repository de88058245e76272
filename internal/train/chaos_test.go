package train

// Chaos soak (DESIGN.md §10): multi-epoch PLS training under scripted,
// seeded transport faults — random frame delays everywhere, periodic
// connection resets (TCP), and one rank crashed mid-Communicate — on both
// the inproc and TCP backends. The survivors must finish every epoch in
// degrade mode — the disrupted one's exchange reset, every other at the
// configured Q — conserve samples (none lost among survivors, none
// duplicated) and end ±1-balanced, agree bitwise on the final weights,
// and leak no goroutines; in abort mode every survivor must fail with the
// typed peer error naming the dead rank.
//
// Every random decision derives from -chaos-seed, so a failing run
// reproduces exactly:
//
//	go test ./internal/train/ -run TestChaos -chaos-seed=7

import (
	"errors"
	"flag"
	"runtime"
	"sync"
	"testing"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

var chaosSeed = flag.Int64("chaos-seed", 1, "base seed for the chaos-injection soak tests (CI runs a fixed matrix; vary locally to explore)")

// chaosScripts builds one fault script per rank from the base seed: every
// rank suffers random frame delays; survivors on wire backends additionally
// suffer periodic connection resets; the victim (none when negative) crashes
// on its Nth exchange frame of killEpoch — i.e. mid-Communicate of that
// epoch, since the PLS exchange stamps frames with the epoch as tag.
func chaosScripts(n, victim, killEpoch int, resets bool) []faultinject.Script {
	scripts := make([]faultinject.Script, n)
	for r := range scripts {
		scripts[r] = faultinject.Script{
			Seed:      *chaosSeed<<8 + int64(r),
			DelayProb: 0.2,
			MaxDelay:  2 * time.Millisecond,
		}
		if resets && r != victim {
			scripts[r].ResetEvery = 40
		}
	}
	if victim >= 0 {
		scripts[victim].CrashTag = killEpoch
		scripts[victim].CrashCount = 2
	}
	return scripts
}

// setAgreeHook installs testAgreeHook for the rest of the test.
func setAgreeHook(t *testing.T, hook func(c *mpi.Comm, point string, epoch int)) {
	restore := testAgreeHook
	testAgreeHook = hook
	t.Cleanup(func() { testAgreeHook = restore })
}

// collTag is mpi's internal tag for phase (an agreement round, a gather) of
// the collective with sequence number seq; a hook reads seq from
// Comm.CollSeq and arms a crash on it (faultinject.Conn.CrashOn).
func collTag(seq, phase int) int { return -(2 + seq<<20 + phase) }

func chaosWrap(scripts []faultinject.Script, conns []*faultinject.Conn) transporttest.WrapConn {
	return func(rank int, inner transport.Conn) transport.Conn {
		c := faultinject.New(inner, scripts[rank])
		conns[rank] = c
		return c
	}
}

// chaosTCPConfig enables heartbeats as distrun does (a peer silent for 2 s
// is dead) and bounds the teardown drain at 2 s.
func chaosTCPConfig(rank int, cfg *tcp.Config) {
	cfg.HeartbeatInterval = 500 * time.Millisecond
	cfg.DrainTimeout = 2 * time.Second
}

// runChaosWorld trains one rank per goroutine over the backend's
// communicators and returns per-rank results and errors. Unlike mpi.Run,
// each rank has its own abort domain, so the scripted crash unwinds only
// the victim — exactly like a dead process in a distributed world.
func runChaosWorld(t *testing.T, b transporttest.Backend, n int, cfg Config) ([]*RankResult, []error) {
	t.Helper()
	return runRanks(t, b, n, func(c *mpi.Comm) (*RankResult, error) { return RunRank(c, cfg) })
}

// runRanks is runChaosWorld with a per-rank program (joiners run JoinRank).
func runRanks(t *testing.T, b transporttest.Backend, n int, program func(c *mpi.Comm) (*RankResult, error)) ([]*RankResult, []error) {
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
				rr, err := program(c)
				rrs[rank] = rr
				return err
			})
			if k, ok := comms[rank].Transport().(transport.Killer); ok && errs[rank] != nil {
				// A rank whose program fails is a process that exits: its
				// endpoint goes with it, so its peers see it die instead of
				// waiting for it in an agreement.
				k.Kill()
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		cleanup() // wake anything still blocked so the process can report
		for r, err := range errs {
			t.Logf("rank %d error at timeout: %v", r, err)
		}
		t.Fatal("chaos world deadlocked")
	}
	cleanup()
	return rrs, errs
}

// assertChaosSurvivors checks the degrade-mode postconditions: all epochs
// recorded; one realized Q per epoch, the configured one except where the
// disruption reset a window (0); bitwise identical weights; sample
// conservation among the survivors and a ±1-balanced final cover.
func assertChaosSurvivors(t *testing.T, rrs []*RankResult, errs []error, n, victim, killEpoch, epochs, datasetN int, q float64) {
	t.Helper()
	var survivors []*RankResult
	for r := 0; r < n; r++ {
		if r == victim {
			if errs[r] == nil {
				t.Fatalf("victim rank %d did not fail despite the scripted crash", r)
			}
			if !errors.Is(errs[r], faultinject.ErrCrashed) {
				t.Fatalf("victim rank %d failed with %v, want the scripted crash", r, errs[r])
			}
			continue
		}
		if errs[r] != nil {
			t.Fatalf("survivor rank %d failed: %v", r, errs[r])
		}
		if rrs[r] == nil {
			t.Fatalf("survivor rank %d produced no result", r)
		}
		survivors = append(survivors, rrs[r])
	}

	for i, rr := range survivors {
		if len(rr.Epochs) != epochs {
			t.Fatalf("survivor %d recorded %d epochs, want %d", i, len(rr.Epochs), epochs)
		}
		// The victim dies inside killEpoch's exchange window, which it never
		// settles. A survivor still in killEpoch−1's last collectives unwinds
		// there, after that epoch's commit; the rest reset killEpoch's window.
		// Every other epoch realizes the configured Q.
		reformed := false
		for e, es := range rr.Epochs {
			cut := es.Disrupted || es.Skipped
			if cut && (e == killEpoch-1 || e == killEpoch) {
				reformed = true
			}
			if want := q; es.EffectiveQ != want && !(cut && e == killEpoch && es.EffectiveQ == 0) {
				t.Errorf("survivor %d epoch %d (disrupted %t, skipped %t): EffectiveQ = %v, want %v", i, e, es.Disrupted, es.Skipped, es.EffectiveQ, want)
			}
		}
		if !reformed {
			t.Errorf("survivor %d shows no disrupted or skipped epoch around the kill at epoch %d", i, killEpoch)
		}
		for e := range rr.Epochs {
			if got, ref := rr.Epochs[e].EffectiveQ, survivors[0].Epochs[e].EffectiveQ; got != ref {
				t.Errorf("survivors 0 and %d disagree on epoch %d's realized Q: %v vs %v", i, e, ref, got)
			}
		}
	}
	requireBalancedStores(t, survivors)

	// Exactly synchronous SGD over the survivors: bitwise identical weights.
	ref := survivors[0].FinalParams
	for i, rr := range survivors[1:] {
		for p := range ref {
			for j := range ref[p].W {
				if rr.FinalParams[p].W[j] != ref[p].W[j] {
					t.Fatalf("survivor %d diverged at param %d[%d]: %v vs %v",
						i+1, p, j, rr.FinalParams[p].W[j], ref[p].W[j])
				}
			}
		}
	}

	// Sample conservation: no ID on two survivors, every ID in range, and
	// the only samples missing from the union are the ones that died with
	// the victim's storage area (at most its (1+Q)·N/M capacity).
	seen := make(map[int]int)
	total := 0
	for i, rr := range survivors {
		for _, id := range rr.FinalLocalIDs {
			if id < 0 || id >= datasetN {
				t.Fatalf("survivor %d holds out-of-range sample %d", i, id)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("sample %d held by survivors %d and %d", id, prev, i)
			}
			seen[id] = i
			total++
		}
	}
	perRank := datasetN / n
	maxLost := int(float64(perRank)*(1+q)) + n // victim capacity + rounding slack
	if total < datasetN-maxLost {
		t.Errorf("survivors hold %d samples of %d; more than the dead rank's %d-sample capacity went missing",
			total, datasetN, maxLost)
	}
	if total > datasetN {
		t.Errorf("survivors hold %d samples of a %d-sample dataset", total, datasetN)
	}
}

// waitGoroutines fails the test if the goroutine count does not return to
// (near) its pre-world baseline — a leaked reader, writer, heartbeat, or
// delay-queue goroutine would keep it elevated.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after chaos run: %d running, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func TestChaosSoakDegradeInproc(t *testing.T) {
	const (
		workers   = 4
		victim    = 2
		q         = 0.5
		epochs    = 3
		killEpoch = 1
		samples   = 512
	)
	base := runtime.NumGoroutine()
	ds := testDataset(t, samples, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = epochs
	cfg.OnPeerFail = "degrade"

	scripts := chaosScripts(workers, victim, killEpoch, false)
	conns := make([]*faultinject.Conn, workers)
	b := transporttest.InprocWrapped("chaos-inproc", chaosWrap(scripts, conns))

	rrs, errs := runChaosWorld(t, b, workers, cfg)
	assertChaosSurvivors(t, rrs, errs, workers, victim, killEpoch, epochs, samples, q)
	if !conns[victim].Injected().Crashed {
		t.Error("victim's injector reports no crash")
	}
	for r, c := range conns {
		if r != victim && c.Injected().Delays == 0 {
			t.Errorf("rank %d suffered no delays; script ineffective", r)
		}
	}
	waitGoroutines(t, base)
}

func TestChaosSoakDegradeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak over real sockets in -short mode")
	}
	const (
		workers   = 4
		victim    = 1
		q         = 0.5
		epochs    = 3
		killEpoch = 1
		samples   = 384
	)
	base := runtime.NumGoroutine()
	ds := testDataset(t, samples, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = epochs
	cfg.OnPeerFail = "degrade"

	scripts := chaosScripts(workers, victim, killEpoch, true)
	conns := make([]*faultinject.Conn, workers)
	b := transporttest.TCPWrapped("chaos-tcp", chaosWrap(scripts, conns), chaosTCPConfig)

	rrs, errs := runChaosWorld(t, b, workers, cfg)
	assertChaosSurvivors(t, rrs, errs, workers, victim, killEpoch, epochs, samples, q)
	if !conns[victim].Injected().Crashed {
		t.Error("victim's injector reports no crash")
	}
	resets := int64(0)
	for r, c := range conns {
		if r != victim {
			resets += c.Injected().Resets
		}
	}
	if resets == 0 {
		t.Error("no connection resets were injected; the soak did not exercise redial")
	}
	waitGoroutines(t, base)
}

// TestChaosSoakDegradeTCPCompressedDedup repeats the TCP degrade soak with
// the full wire-lean stack live: wirecomp-compressed batch frames, pairwise
// dedup reference frames, and fp16exact sample encoding. The victim dies
// mid-Communicate of epoch 1 — after the dedup caches warmed up in epoch 0,
// so KindDataZ and KindDataRef frames are in flight when the failure hits.
// Recovery must invalidate every survivor's pair state (a survivor that
// kept its mirror would emit refs its peer can no longer resolve) and the
// survivors must still agree bitwise and conserve samples. A dedup hit needs
// a sample to travel there, back and there again — three undisturbed epochs
// after the recovery dropped the pair caches — so the run has six. The hit
// count follows from the plan: the disrupted window resets, so the layout
// after the recovery is epoch 0's commit re-dealt at the resume epoch, and
// the death lands in one of two places — epoch 0's closing collectives on
// every survivor (resume at 1) or epoch 1 (resume at 2).
func TestChaosSoakDegradeTCPCompressedDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak over real sockets in -short mode")
	}
	const (
		workers   = 4
		victim    = 2
		q         = 0.5
		epochs    = 6
		killEpoch = 1
		samples   = 384
	)
	base := runtime.NumGoroutine()
	ds := testDataset(t, samples, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = epochs
	cfg.OnPeerFail = "degrade"
	cfg.WireDedup = true
	cfg.SampleEncoding = "fp16exact"

	scripts := chaosScripts(workers, victim, killEpoch, true)
	conns := make([]*faultinject.Conn, workers)
	b := transporttest.TCPWrapped("chaos-tcp-z-dedup", chaosWrap(scripts, conns),
		func(rank int, cfg *tcp.Config) {
			chaosTCPConfig(rank, cfg)
			cfg.Compress = true
		})

	rrs, errs := runChaosWorld(t, b, workers, cfg)
	assertChaosSurvivors(t, rrs, errs, workers, victim, killEpoch, epochs, samples, q)
	if !conns[victim].Injected().Crashed {
		t.Error("victim's injector reports no crash")
	}
	// The soak is only meaningful if the lean wire paths actually carried
	// traffic before and around the failure: at least one survivor must have
	// scored dedup hits across the run.
	hits, resume := 0, 0
	for r, rr := range rrs {
		if r == victim || rr == nil {
			continue
		}
		for _, es := range rr.Epochs {
			hits += es.DedupHits
			if es.Disrupted || es.Skipped {
				resume = max(resume, es.Epoch+1)
			}
		}
	}
	if want := map[int]int{1: 25, 2: 9}[resume]; hits != want || hits == 0 {
		t.Errorf("survivors recorded %d dedup hits resuming at epoch %d, want %d: the plan fixes the count (resume at 1: 25, at 2: 9)", hits, resume, want)
	}
	waitGoroutines(t, base)
}

func TestChaosAbortTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos abort over real sockets in -short mode")
	}
	const (
		workers   = 3
		victim    = 0 // rank 0 dying exercises detection by ranks that never dial it first
		q         = 0.4
		killEpoch = 1
		samples   = 384
	)
	ds := testDataset(t, samples, 4)
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = 3 // plenty of run left when the victim dies

	scripts := chaosScripts(workers, victim, killEpoch, false)
	conns := make([]*faultinject.Conn, workers)
	b := transporttest.TCPWrapped("chaos-abort-tcp", chaosWrap(scripts, conns), chaosTCPConfig)

	_, errs := runChaosWorld(t, b, workers, cfg)
	for r := 0; r < workers; r++ {
		if r == victim {
			if !errors.Is(errs[r], faultinject.ErrCrashed) {
				t.Fatalf("victim rank %d failed with %v, want the scripted crash", r, errs[r])
			}
			continue
		}
		if errs[r] == nil {
			t.Fatalf("survivor rank %d succeeded; abort policy must propagate the peer death", r)
		}
		pe, ok := mpi.PeerErrorFrom(errs[r])
		if !ok {
			t.Fatalf("survivor rank %d error carries no PeerError: %v", r, errs[r])
		}
		if pe.Rank != victim {
			t.Fatalf("survivor rank %d blames rank %d, want %d", r, pe.Rank, victim)
		}
	}
}
