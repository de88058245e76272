package main

import (
	"fmt"
	"runtime"
	"time"

	"plshuffle/internal/shuffle"
	"plshuffle/internal/trace"
)

// perLayer is the traced pass. It trains the workload untraced and traced
// (the gap is the tracing overhead), trains its twins, runs the standalone
// probes, and reports every per-layer metric. Its spans are written to
// traceOut when the pass ends.
func (b *bench) perLayer(w workload, traceOut string) (passResult, error) {
	var p passResult
	w = b.sized(w)
	sl := newSpanLog(w.name)
	in, _, err := b.setUp(w, sl)
	if err != nil {
		return p, err
	}
	deadline := 60 * time.Second
	if !b.smoke { // a smoke run is its own warm-up
		if deadline, _, err = b.warmUp(w, in); err != nil {
			return p, err
		}
	}
	// A third of the measuring time each for the untraced runs and the
	// traced runs; the twins and the probes take the rest.
	share := time.Duration(b.seconds * float64(time.Second) / 3)
	b.logf(" untraced runs")
	plain := b.measure(w, in, 1, share, deadline, nil, nil, nil)
	b.logf(" traced runs")
	rec := trace.NewRecorder()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced := b.measure(w, in, 1, share, deadline, rec, sl, nil)
	runtime.ReadMemStats(&ms1)

	all := runSet{ok: append(append([]run(nil), plain.ok...), traced.ok...),
		attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed}
	b.verify(w, &all, &p)
	p.Attempted, p.Failed = all.attempted, min(all.failed, all.attempted)
	if len(plain.ok) == 0 || len(traced.ok) == 0 {
		return p, fmt.Errorf("%s: traced pass has no completed run to report", w.name)
	}

	out := map[string][]float64{}
	add := func(name string, v float64) { out[name] = append(out[name], v) }
	set := func(name string, v float64) { out[name] = []float64{v} }

	// train: rank 0's phase accounting of each traced run, per epoch.
	e := float64(w.epochs)
	var fwbwPerStep time.Duration
	for _, r := range traced.ok {
		ph := sumPhases(r.ranks[0].Epochs)
		add("train.io_ms_per_epoch", ms(ph.io)/e)
		add("train.exchange_ms_per_epoch", ms(ph.exchange)/e)
		add("train.fwbw_ms_per_epoch", ms(ph.fwbw)/e)
		add("train.gewu_ms_per_epoch", ms(ph.gewu)/e)
		add("train.gewu_wait_ms_per_epoch", ms(ph.gewuWait)/e)
		hidden := 0.0
		if ph.gewuComm > 0 {
			hidden = 100 * (1 - float64(ph.gewuWait)/float64(ph.gewuComm))
		}
		add("train.gewu_hidden_pct", hidden)
		// The slowest rank sets a synchronous step: how far apart the ranks'
		// accounted times lie bounds what speeding one rank up can deliver.
		lo, hi, sum := time.Duration(1<<62), time.Duration(0), time.Duration(0)
		for _, rr := range r.ranks {
			a := sumPhases(rr.Epochs).accounted()
			lo, hi, sum = min(lo, a), max(hi, a), sum+a
		}
		add("train.rank_skew_pct", 100*float64(hi-lo)/(float64(sum)/ranks))
		fwbwPerStep = ph.fwbw / time.Duration(w.itersPerEpoch()*w.epochs)
	}
	// Validation is timed only in the trace recorder's events; what neither
	// the phases nor validation cover (checkpoint commit, epoch boundaries)
	// is left over as unaccounted.
	var validate time.Duration
	for _, ev := range rec.Events() {
		if ev.Rank == 0 && ev.Phase == trace.PhaseValidate {
			validate += ev.Duration
		}
	}
	runs := float64(len(traced.ok))
	set("train.validate_ms_per_epoch", ms(validate)/runs/e)
	var own, accounted time.Duration
	for _, r := range traced.ok {
		own += r.rankTime[0]
		accounted += sumPhases(r.ranks[0].Epochs).accounted()
	}
	set("train.unaccounted_ms_per_epoch", ms(own-accounted-validate)/runs/e)
	var epochMS []float64
	for _, r := range plain.ok {
		for _, es := range r.ranks[0].Epochs {
			epochMS = append(epochMS, ms(es.IOTime+es.ExchangeTime+es.FWBWTime+es.GEWUTime))
		}
	}
	set("train.epoch_ms_p50", median(epochMS))
	set("train.epoch_ms_p90", tail(epochMS))
	// Whole-process deltas over the traced runs: all four ranks, and the
	// world set-up and teardown of each run.
	set("train.allocs_per_epoch", float64(ms1.Mallocs-ms0.Mallocs)/runs/e)
	set("train.alloc_mb_per_epoch", float64(ms1.TotalAlloc-ms0.TotalAlloc)/mib/runs/e)
	set("train.gc_pause_ms_per_epoch", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/runs/e)

	speeds := func(rs []run) (sps, wall []float64) {
		for _, r := range rs {
			sps = append(sps, r.samplesPerS(w.n))
			wall = append(wall, r.wall.Seconds())
		}
		return sps, wall
	}
	plainSPS, plainWall := speeds(plain.ok)
	tracedSPS, _ := speeds(traced.ok)
	set("train.tracing_overhead_pct", 100*(median(plainSPS)-median(tracedSPS))/median(plainSPS))

	// Twins. The local twin is the same training with no shuffle and no
	// storage tier underneath it; what the workload takes longer is the
	// shuffle's (or the tier's and the checkpoints') cost as it surfaces in
	// wall time, wherever the phase accounting books it.
	b.logf(" local twin")
	twin := b.oneRun(w.localTwin(), in, w.epochs, deadline, nil, sl, -1)
	if !p.check("local twin trains", twin.failedRankEpochs() == 0, "err %v", twin.err) {
		return p, fmt.Errorf("%s: local twin failed: %v", w.name, twin.err)
	}
	set("train.local_twin_samples_per_s", twin.samplesPerS(w.n))
	overhead := median(plainWall) - twin.wall.Seconds()
	set("train.shuffle_overhead_pct", 100*overhead/twin.wall.Seconds())

	// transport and shuffle: world totals of the traced runs.
	var frames, bytes, exchWire, hits int64
	for _, r := range traced.ok {
		for rank, st := range r.stats {
			frames += st.FramesSent
			bytes += st.BytesSent
			for _, es := range r.ranks[rank].Epochs {
				exchWire += es.ExchangeWireBytes
				hits += int64(es.DedupHits)
			}
		}
	}
	set("transport.frames_per_epoch", float64(frames)/runs/e)
	set("transport.bytes_per_epoch", float64(bytes)/runs/e)
	set("shuffle.wire_bytes_per_epoch", float64(exchWire)/runs/e)
	var boots, closes []float64
	for _, r := range all.ok {
		boots = append(boots, ms(r.bootstrap))
		closes = append(closes, ms(r.closeDur))
	}
	set("transport.bootstrap_ms", median(boots))
	set("transport.close_ms", median(closes))
	// In-run exchange counters are 0 on the workloads that run no exchange.
	dedupPct, reduction := 0.0, 0.0
	if w.strategy.Kind == shuffle.PartialLocal {
		slots := shuffle.Slots(w.strategy.Q, w.n, ranks)
		dedupPct = 100 * float64(hits) / (runs * e * ranks * float64(slots))
		reduction = 1 // a plain wire is its own plain twin
		if w.isLean() {
			b.logf(" plain twin")
			tw := b.twinCheck(w, in, traced.ok[0], deadline, sl, &p)
			if tw.err != nil {
				return p, fmt.Errorf("%s: plain twin failed: %v", w.name, tw.err)
			}
			var twinWire int64
			for _, rr := range tw.ranks {
				for _, es := range rr.Epochs {
					twinWire += es.ExchangeWireBytes
				}
			}
			reduction = float64(twinWire) / (float64(exchWire) / runs)
		}
	}
	set("shuffle.dedup_hit_pct", dedupPct)
	set("shuffle.wire_reduction_x", reduction)

	// store: the cache tier's counters of the traced runs (0 without a tier).
	var cacheHits, cacheMisses, evictions, pfsBytes int64
	for _, r := range traced.ok {
		for _, rr := range r.ranks {
			if c := rr.Cache; c != nil {
				cacheHits, cacheMisses = cacheHits+c.Hits, cacheMisses+c.Misses
				evictions, pfsBytes = evictions+c.Evictions, pfsBytes+c.PFSReadBytes
			}
		}
	}
	hitPct := 0.0
	if cacheHits+cacheMisses > 0 {
		hitPct = 100 * float64(cacheHits) / float64(cacheHits+cacheMisses)
	}
	set("store.cache_hit_pct", hitPct)
	set("store.pfs_read_mb_per_epoch", float64(pfsBytes)/mib/runs/e)
	set("store.evictions_per_epoch", float64(evictions)/runs/e)

	// Standalone probes, then the metrics that set a probe against the run.
	b.logf(" probes")
	pr := &prober{b: b, w: w, in: in, sl: sl, out: out}
	pr.tensorProbe()
	fwbwAlone := pr.nnProbe()
	allreduce := pr.mpiProbe()
	batch := pr.dataProbe()
	streamMBs, pingpong := pr.transportProbe(batch)
	exchangeEpoch := pr.shuffleProbe()
	readInto := pr.storeProbe()
	pr.checkpointProbe()
	if pr.err == nil {
		pr.perfmodelProbe(time.Duration(median(plainWall)/e*float64(time.Second)), allreduce, readInto, pingpong, streamMBs)
	}
	if !p.check("probes", pr.err == nil, "err %v", pr.err) {
		return p, pr.err
	}
	// Oversubscribed cores and cache interference: the same step in the run
	// over the step alone.
	set("nn.fwbw_contention_x", float64(fwbwPerStep)/float64(fwbwAlone))
	// The share of the standalone exchange cost that the overlap with
	// training hides from wall time (0 on the workloads with no exchange).
	hiddenPct := 0.0
	if w.strategy.Kind == shuffle.PartialLocal {
		hiddenPct = 100 * (1 - overhead/(e*exchangeEpoch.Seconds()))
	}
	set("shuffle.hidden_pct", hiddenPct)

	p.bind(b.spec.PerLayer, out)
	if traceOut != "" {
		if err := sl.write(traceOut); err != nil {
			return p, err
		}
		b.logf(" %d spans written to %s", len(sl.spans), traceOut)
	}
	return p, nil
}
