package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/trace"
	"plshuffle/internal/train"
)

// bench is what every pass of an invocation shares.
type bench struct {
	spec    *benchSpec
	seed    uint64
	seconds float64 // measuring time of a pass
	smoke   bool    // quarter-size inputs, E=1, one run, minimal probe counts
	workDir string  // scratch inside the checkout; removed on exit
	log     io.Writer
	start   time.Time
}

// logf prints one progress line, stamped with the seconds since start.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "%6.1fs "+format+"\n", append([]any{time.Since(b.start).Seconds()}, args...)...)
}

// sized returns the workload as this invocation runs it.
func (b *bench) sized(w workload) workload {
	if b.smoke {
		w.n /= 4
		w.cacheBytes /= 4
		w.epochs = 1
	}
	return w
}

// run is one training run of a 4-rank world and what the checks need of it.
type run struct {
	trained
	epochs int
	crc    uint32  // crc32c of rank 0's final weights
	rssMiB float64 // resident-set high-water mark of this run alone
}

func (r run) samplesPerS(n int) float64 { return float64(n*r.epochs) / r.wall.Seconds() }

// failedRankEpochs counts the rank-epochs the run did not complete: all of
// them when the world failed, otherwise the missing, disrupted and skipped.
func (r run) failedRankEpochs() int {
	if r.err != nil {
		return ranks * r.epochs
	}
	failed := 0
	for _, rr := range r.ranks {
		done := 0
		for _, e := range rr.Epochs {
			if !e.Disrupted && !e.Skipped {
				done++
			}
		}
		failed += r.epochs - done
	}
	return failed
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// weightsCRC is the checksum distrun prints: crc32c over the float bits, LE.
func weightsCRC(params []nn.Param) uint32 {
	h := crc32.New(castagnoli)
	var b [4]byte
	for _, p := range params {
		for _, v := range p.W {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum32()
}

// setUp generates the inputs, bootstraps a world and returns the inputs with
// the time that took. The bootstrapped world only proves the set-up complete;
// each run opens its own. An ingested dataset is flushed to the disk, untimed,
// before setUp returns.
func (b *bench) setUp(w workload, sl *spanLog) (*inputs, time.Duration, error) {
	debug.FreeOSMemory() // what came before must not inflate this set-up's page faults
	t0 := time.Now()
	in, err := w.generate(b.seed, b.workDir, sl)
	if err != nil {
		return nil, 0, fmt.Errorf("generating inputs: %w", err)
	}
	sp := sl.begin(0, "bootstrap", "transport", -1, -1)
	wd, err := openWorld(w.compress)
	sl.end(sp, nil)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	wd.closeAll()
	if in.dataDir != "" {
		if err := syncFiles(in.dataDir); err != nil {
			return nil, 0, err
		}
	}
	return in, took, nil
}

// syncFiles flushes every file under dir to the disk. Ingest leaves its
// shards as dirty pages; a run that starts while the kernel still writes them
// back shares the disk with that, and its checkpoint fsyncs queue behind it:
// unsettled, the storage workload's throughput drifted by 20% within one
// invocation. The flush is not the program's work, so set-up does not time it.
func syncFiles(dir string) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// oneRun trains w for epochs on a fresh world. rec and sl are nil on
// untraced runs.
func (b *bench) oneRun(w workload, in *inputs, epochs int, deadline time.Duration, rec *trace.Recorder, sl *spanLog, idx int) run {
	r := run{epochs: epochs}
	ckpt := filepath.Join(b.workDir, "ckpt")
	if err := os.RemoveAll(ckpt); err != nil {
		r.err = err
		return r
	}
	cfg, err := w.config(in, b.seed, epochs, ckpt)
	if err != nil {
		r.err = err
		return r
	}
	cfg.Trace = rec
	// Each run starts from a collected heap and its own high-water mark:
	// what a run leaves behind must not pad the next one's peak or its GC.
	resetPeakRSS()
	root := sl.begin(0, "run", "benchmark", idx, -1)
	r.trained = trainWorld(cfg, w.compress, deadline, sl, root, idx)
	sl.end(root, nil)
	r.rssMiB = peakRSSMiB()
	if r.err == nil {
		r.crc = weightsCRC(r.ranks[0].FinalParams)
		for _, rr := range r.ranks {
			rr.FinalParams, rr.FinalModel = nil, nil // checksummed; let the replicas go
		}
	}
	return r
}

// runSet is a sequence of runs of one workload and its failure accounting.
type runSet struct {
	ok        []run // completed runs, in order
	attempted int   // rank-epochs
	failed    int
}

// footprintGCPercent is the GC target of the warm-up run. With the default
// of 100 the resident-set peak of a run is set by where in the run the few GC
// cycles happen to fall (358–466 MiB on compute at the seed commit, same
// inputs); at 10 the heap stays within a tenth of what is live and the peak
// repeats to about 2%.
const footprintGCPercent = 10

// warmUp is one discarded run of a quarter of the epochs. It serves two
// ends. Its time sets the watchdog deadline of the runs that follow: five
// times what a full run should take, 20 s at least. And because it trains
// under footprintGCPercent, its resident-set high-water mark is the
// workload's peak_rss_mb: the memory the run needs, not the garbage the
// collector happened to leave. The timed runs use the default GC target.
func (b *bench) warmUp(w workload, in *inputs) (deadline time.Duration, rssMiB float64, err error) {
	e := max(1, w.epochs/4)
	old := debug.SetGCPercent(footprintGCPercent)
	r := b.oneRun(w, in, e, 120*time.Second, nil, nil, -1)
	debug.SetGCPercent(old)
	if r.err != nil {
		return 0, 0, fmt.Errorf("warm-up run: %w", r.err)
	}
	b.logf("  warm-up: %d epochs, wall %.3fs, peak rss %.0f MiB at GOGC=%d", e, r.wall.Seconds(), r.rssMiB, footprintGCPercent)
	expected := r.wall * time.Duration(w.epochs) / time.Duration(e)
	return max(20*time.Second, 5*expected), r.rssMiB, nil
}

// measure runs w until budget has elapsed, minRuns times at least. Another
// run starts only while the budget is further away than half a run. A failed
// run costs its own rank-epochs and the loop goes on. After every run sp, if
// there is one, takes the calibration slices owed for it.
func (b *bench) measure(w workload, in *inputs, minRuns int, budget, deadline time.Duration, rec *trace.Recorder, sl *spanLog, sp *speedometer) runSet {
	var rs runSet
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		r := b.oneRun(w, in, w.epochs, deadline, rec, sl, n)
		rs.attempted += ranks * w.epochs
		if f := r.failedRankEpochs(); f > 0 {
			rs.failed += f
			b.logf("  run %d FAILED (%d rank-epochs): %v", n, f, r.err)
		} else {
			rs.ok = append(rs.ok, r)
			b.logf("  run %d: wall %.3fs  %.0f samples/s  peak rss %.0f MiB  crc32c %08x", n, r.wall.Seconds(), r.samplesPerS(w.n), r.rssMiB, r.crc)
		}
		if sp != nil {
			sp.after(time.Since(t0))
		}
		if b.smoke || (n+1 >= minRuns && time.Since(start)+time.Since(t0)/2 >= budget) {
			return rs
		}
	}
}

// verify applies the correctness checks every pass shares. A run that fails
// one counts all its rank-epochs as failed.
func (b *bench) verify(w workload, rs *runSet, p *passResult) {
	if len(rs.ok) == 0 {
		p.check("runs", false, "no run of %s completed", w.name)
		return
	}
	first := rs.ok[0]
	acc := func(r run) float64 { return r.ranks[0].Epochs[r.epochs-1].ValAcc }
	bad := 0
	for _, r := range rs.ok[1:] {
		if r.crc != first.crc || acc(r) != acc(first) {
			bad++
		}
	}
	p.check("weights crc32c repeats", bad == 0, "%d runs, crc32c %08x, %d differ", len(rs.ok), first.crc, bad)
	rs.failed += bad * ranks * w.epochs

	if w.strategy.Kind == shuffle.PartialLocal {
		lo, hi := w.n/ranks, (w.n+ranks-1)/ranks
		limit := 1 + w.strategy.Q
		bad = 0
		for _, r := range rs.ok {
			okRun := storageRatio(w, r) <= limit
			for _, rr := range r.ranks {
				if rr.FinalLocalSamples < lo || rr.FinalLocalSamples > hi {
					okRun = false
				}
			}
			if !okRun {
				bad++
			}
		}
		p.check("PLS balance and storage bound", bad == 0,
			"every rank ends with N/M=%d samples and peak storage %.4f <= 1+Q=%.2f; %d runs violate", lo, storageRatio(w, first), limit, bad)
		rs.failed += bad * ranks * w.epochs
	}
}

// storageRatio is the bytes of training samples the most loaded rank had to
// keep reachable, over the fair share N/M·sample bytes. For the stores and
// the cache tier that is the recorded high-water mark (PLS: at most 1+Q).
// Global shuffling keeps no local store because every rank reads any sample
// of the full dataset, so its requirement is the dataset itself: M×, as
// shuffle.Strategy.StorageFactor has it.
func storageRatio(w workload, r run) float64 {
	if w.strategy.Kind == shuffle.Global {
		return w.strategy.StorageFactor(ranks)
	}
	var peak int64
	for _, rr := range r.ranks {
		peak = max(peak, rr.PeakStorageBytes)
	}
	return float64(peak) / w.fairShareBytes()
}

// twinCheck trains the lean workload's plain-wire twin once and demands
// bitwise-equal weights: dedup, fp16exact and compression must not change
// training. It returns the twin's run for the wire-reduction metric.
func (b *bench) twinCheck(w workload, in *inputs, lean run, deadline time.Duration, sl *spanLog, p *passResult) run {
	tw := b.oneRun(w.plainTwin(), in, w.epochs, deadline, nil, sl, -2)
	ok := tw.err == nil && tw.crc == lean.crc
	p.check("plain twin matches crc32c", ok, "lean %08x, plain twin %08x (err %v)", lean.crc, tw.crc, tw.err)
	return tw
}

func (w workload) isLean() bool { return w.dedup || w.compress || w.encoding != "" }

// endToEnd is the timed pass: tracing off, every metric the median over the
// runs (or set-ups) that pay it, the two time metrics at reference speed (see
// speed.go).
func (b *bench) endToEnd(w workload) (passResult, error) {
	var p passResult
	w = b.sized(w)
	in, took, err := b.setUp(w, nil)
	if err != nil {
		return p, err
	}
	setupSecs := []float64{took.Seconds()}
	if in.dataDir != "" {
		in.ds = nil // training streams from the shard files; the copy in memory would only pad peak_rss_mb
	}
	deadline, rssMiB, err := b.warmUp(w, in)
	if err != nil {
		return p, err
	}
	// The speedometer starts after the warm-up, whose resident-set mark its
	// buffers must not pad, and first samples what the first set-up owes.
	sp := &speedometer{}
	sp.after(took)
	// The machine also has phases, seconds long, in which the same
	// single-threaded code runs 40% slower. Set-ups back to back fall into one
	// phase together; with the warm-up and the timed runs between them their
	// median does not. A set-up of a few ms is repeated until 0.3 s are spent,
	// so that the cheap ones are a median of dozens.
	again := func() error {
		var spent time.Duration
		for spent < 300*time.Millisecond && !b.smoke {
			_, took, err := b.setUp(w, nil) // the same seed: the same inputs
			if err != nil {
				return err
			}
			setupSecs = append(setupSecs, took.Seconds())
			spent += took
		}
		sp.after(spent)
		return nil
	}
	if err := again(); err != nil {
		return p, err
	}
	rs := b.measure(w, in, 2, time.Duration(b.seconds*float64(time.Second)), deadline, nil, nil, sp)
	if err := again(); err != nil {
		return p, err
	}
	b.verify(w, &rs, &p)
	if w.isLean() && len(rs.ok) > 0 {
		if tw := b.twinCheck(w, in, rs.ok[0], deadline, nil, &p); tw.err != nil || tw.crc != rs.ok[0].crc {
			rs.failed = rs.attempted
		}
	}
	p.Attempted, p.Failed = rs.attempted, min(rs.failed, rs.attempted)
	if len(rs.ok) == 0 {
		return p, fmt.Errorf("%s: no run completed", w.name)
	}

	p.Slowdown = sp.slowdown()
	b.logf("  machine: %d calibration slices, mean %.2f ms against the reference's %.0f ms: slowdown %.4f",
		len(sp.slices), p.Slowdown*calReferenceMS, calReferenceMS, p.Slowdown)
	b.logf("  as measured: samples_per_s %.6g, setup_s %.6g", median(throughputs(rs.ok, w.n)), median(setupSecs))
	for i := range setupSecs {
		setupSecs[i] /= p.Slowdown
	}
	samples := map[string][]float64{"setup_s": setupSecs, "peak_rss_mb": {rssMiB}}
	for _, r := range rs.ok {
		var sent int64
		for _, st := range r.stats {
			sent += st.BytesSent
		}
		work := float64(w.n * r.epochs)
		samples["samples_per_s"] = append(samples["samples_per_s"], r.samplesPerS(w.n)*p.Slowdown)
		samples["final_val_acc"] = append(samples["final_val_acc"], r.ranks[0].Epochs[r.epochs-1].ValAcc)
		samples["wire_bytes_per_sample"] = append(samples["wire_bytes_per_sample"], float64(sent)/work)
		samples["peak_storage_ratio"] = append(samples["peak_storage_ratio"], storageRatio(w, r))
	}
	p.bind(b.spec.EndToEnd, samples)
	return p, nil
}

// throughputs are the runs' throughputs as measured.
func throughputs(rs []run, n int) []float64 {
	var sps []float64
	for _, r := range rs {
		sps = append(sps, r.samplesPerS(n))
	}
	return sps
}

// phases are rank-level sums of train.EpochStats over a run.
type phases struct {
	io, exchange, fwbw, gewu, gewuWait, gewuComm time.Duration
}

func (ph phases) accounted() time.Duration { return ph.io + ph.exchange + ph.fwbw + ph.gewu }

func sumPhases(es []train.EpochStats) phases {
	var ph phases
	for _, e := range es {
		ph.io += e.IOTime
		ph.exchange += e.ExchangeTime
		ph.fwbw += e.FWBWTime
		ph.gewu += e.GEWUTime
		ph.gewuWait += e.GEWUWaitTime
		ph.gewuComm += e.GEWUCommTime
	}
	return ph
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
