package main

// Standalone probes: each calls one layer's public functions directly, on
// the workload's shapes, over a fresh 4-rank TCP world or on one goroutine,
// with nothing else running. They give the layer's own speed, against which
// the in-run phase times are read. Every probe call is one span.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"plshuffle/internal/checkpoint"
	"plshuffle/internal/cluster"
	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/perfmodel"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store"
	"plshuffle/internal/store/cache"
	"plshuffle/internal/store/shard"
	"plshuffle/internal/tensor"
	"plshuffle/internal/tensor/arena"
	"plshuffle/internal/train"
	"plshuffle/internal/transport/wirecomp"
)

const mib = 1 << 20

// prober carries what the probes share and collects their metrics.
type prober struct {
	b   *bench
	w   workload
	in  *inputs
	sl  *spanLog
	out map[string][]float64
	err error // first probe failure
}

func (p *prober) set(name string, v float64) { p.out[name] = []float64{v} }

func (p *prober) fail(layer string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("%s probe: %w", layer, err)
	}
}

// budget is how long one probe loop measures.
func (p *prober) budget() time.Duration {
	if p.b.smoke {
		return 5 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// count scales a probe's fixed repetition count down for -smoke.
func (p *prober) count(n int) int {
	if p.b.smoke {
		return max(2, n/20)
	}
	return n
}

// span runs fn as one traced probe call of layer.
func (p *prober) span(name, layer string, fn func() map[string]int64) {
	sp := p.sl.begin(0, name, layer, -1, -1)
	p.sl.end(sp, fn())
}

// repeat calls fn once untimed, then for at least budget, and returns the
// repetitions and the time they took.
func repeat(budget time.Duration, fn func()) (int, time.Duration) {
	fn()
	n := 0
	t0 := time.Now()
	for {
		fn()
		n++
		if el := time.Since(t0); el >= budget {
			return n, el
		}
	}
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// mbPerS is bytes over time in MB/s (10^6 bytes).
func mbPerS(bytes float64, d time.Duration) float64 { return bytes / 1e6 / d.Seconds() }

// widestLayer is the Linear layer with the most multiply-adds, the shape
// the tensor probe measures.
func (w workload) widestLayer() (in, out int) {
	dims := append(append([]int{w.features}, w.hidden...), classes)
	for i := 0; i+1 < len(dims); i++ {
		if dims[i]*dims[i+1] > in*out {
			in, out = dims[i], dims[i+1]
		}
	}
	return in, out
}

// tensorProbe times the three GEMM forms a training step uses, at b×in×out
// of the workload's widest layer, on one goroutine.
func (p *prober) tensorProbe() {
	b := p.w.batch
	in, out := p.w.widestLayer()
	x, wt, y := tensor.New(b, in), tensor.New(in, out), tensor.New(b, out)
	dw, dx := tensor.New(in, out), tensor.New(b, in)
	for _, m := range []*tensor.Matrix{x, wt, y} {
		for i := range m.Data {
			m.Data[i] = float32(i%13) * 0.1
		}
	}
	flops := 2 * float64(b) * float64(in) * float64(out)
	for _, k := range []struct {
		metric string
		fn     func()
	}{
		{"tensor.gemm_gflops", func() { tensor.MatMulInto(y, x, wt) }},       // forward: Y = X·W
		{"tensor.gemm_ta_gflops", func() { tensor.MatMulTAInto(dw, x, y) }},  // dW = Xᵀ·dY
		{"tensor.gemm_tb_gflops", func() { tensor.MatMulTBInto(dx, y, wt) }}, // dX = dY·Wᵀ
	} {
		p.span(k.metric, "tensor", func() map[string]int64 {
			n, el := repeat(p.budget(), k.fn)
			p.set(k.metric, flops*float64(n)/el.Seconds()/1e9)
			return map[string]int64{"calls": int64(n)}
		})
	}
}

// nnProbe times one replica's forward + loss + backward and its optimizer
// step with no peers, and returns the forward+backward time per step.
func (p *prober) nnProbe() time.Duration {
	model, err := p.w.model().Build(p.b.seed, p.b.seed+1000)
	if err != nil {
		p.fail("nn", err)
		return 0
	}
	a := arena.New(0)
	model.SetArena(a)
	var ce nn.SoftmaxCrossEntropy
	ce.SetArena(a)
	params := model.Params()
	opt := nn.NewSGD(0.9, 1e-4)
	x := tensor.New(p.w.batch, p.w.features)
	labels := make([]int, p.w.batch)
	for i := range labels {
		s := p.in.ds.Train[i%len(p.in.ds.Train)]
		copy(x.Row(i), s.Features)
		labels[i] = s.Label
	}
	step := func() {
		a.Reset()
		ce.Forward(model.Forward(x, true), labels)
		model.Backward(ce.Backward())
	}
	var perStep time.Duration
	p.span("Forward+Backward", "nn", func() map[string]int64 {
		step() // size every workspace before counting allocations
		m0, _ := mallocs()
		n, el := repeat(p.budget(), step)
		m1, _ := mallocs()
		perStep = el / time.Duration(n)
		p.set("nn.fwbw_us_per_step", us(el)/float64(n))
		p.set("nn.fwbw_allocs_per_step", float64(m1-m0)/float64(n+1))
		return map[string]int64{"steps": int64(n), "allocs": int64(m1 - m0)}
	})
	p.span("Optimizer.Step", "nn", func() map[string]int64 {
		n, el := repeat(p.budget(), func() { opt.Step(params, 0.05) })
		p.set("nn.opt_step_us", us(el)/float64(n))
		return map[string]int64{"steps": int64(n)}
	})
	return perStep
}

// onWorld runs fn on every rank of a fresh world.
func (p *prober) onWorld(name, layer string, compress bool, fn func(c *mpi.Comm) error) {
	p.span(name, layer, func() map[string]int64 {
		w, err := openWorld(compress)
		if err != nil {
			p.fail(layer, err)
			return nil
		}
		o := w.execute(60*time.Second, fn)
		p.fail(layer, o.err)
		var bytes, frames int64
		for _, st := range o.stats {
			bytes += st.BytesSent
			frames += st.FramesSent
		}
		return map[string]int64{"bytes_sent": bytes, "frames_sent": frames}
	})
}

// agree makes every rank use rank 0's value.
func agree(c *mpi.Comm, v int) int {
	buf := []int{v}
	mpi.Bcast(c, buf, 0)
	return buf[0]
}

// mpiProbe times the ring all-reduce at the model's gradient length and the
// barrier, seen from rank 0. It returns the all-reduce's median time.
func (p *prober) mpiProbe() time.Duration {
	model, err := p.w.model().Build(p.b.seed, p.b.seed)
	if err != nil {
		p.fail("mpi", err)
		return 0
	}
	elems := model.NumParams()
	var p50 time.Duration
	p.onWorld("AllreduceWire+Barrier", "mpi", false, func(c *mpi.Comm) error {
		buf := make([]float32, elems)
		t0 := time.Now()
		mpi.AllreduceWire(c, buf, mpi.OpSum)
		mpi.AllreduceWire(c, buf, mpi.OpSum)
		// Up to 200 calls, as many as fit four probe budgets.
		calls := agree(c, min(p.count(200), max(5, int(4*p.budget()/(time.Since(t0)/2+1)))))
		durs := make([]time.Duration, calls)
		var wire int64
		c.Barrier()
		m0, _ := mallocs()
		for i := range durs {
			t := time.Now()
			sent, recv := mpi.AllreduceWire(c, buf, mpi.OpSum)
			durs[i] = time.Since(t)
			wire = sent + recv
		}
		c.Barrier()
		m1, _ := mallocs()
		bars := make([]time.Duration, p.count(200))
		for i := range bars {
			t := time.Now()
			c.Barrier()
			bars[i] = time.Since(t)
		}
		if c.Rank() == 0 {
			s := durationsUS(durs)
			p50 = time.Duration(median(s) * float64(time.Microsecond))
			p.set("mpi.allreduce_us_p50", median(s))
			p.set("mpi.allreduce_us_p90", tail(s))
			p.set("mpi.allreduce_mb_s", mbPerS(4*float64(elems), p50))
			p.set("mpi.allreduce_wire_bytes", float64(wire))
			p.set("mpi.allreduce_allocs", float64(m1-m0)/float64(calls*ranks))
			p.set("mpi.barrier_us_p50", median(durationsUS(bars)))
		}
		return nil
	})
	return p50
}

// itersPerEpoch is the trainer's step count: N/M samples in batches of b.
func (w workload) itersPerEpoch() int { return w.n / ranks / min(w.batch, w.n/ranks) }

// exchangeBatch is one frame of the workload's exchange: the samples one
// iteration's chunk sends to one destination. The data, wirecomp and
// compressed-stream probes encode it.
func (p *prober) exchangeBatch() []data.Sample {
	slots, iters := shuffle.Slots(p.w.exchangeQ(), p.w.n, ranks), p.w.itersPerEpoch()
	chunk := (slots + iters - 1) / iters
	return p.in.ds.Train[:max(1, chunk/(ranks-1))]
}

func (p *prober) encoding() data.Encoding {
	enc, err := data.ParseEncoding(p.w.encoding)
	p.fail("data", err)
	return enc
}

// dataProbe times the exchange batch codec under the workload's encoding, in
// MB/s of sample payload, and returns one encoded batch.
func (p *prober) dataProbe() []byte {
	batch, enc := p.exchangeBatch(), p.encoding()
	payload := float64(len(batch)) * float64(p.w.sampleBytes())
	var buf []byte
	p.span("AppendSampleBatchEnc", "data", func() map[string]int64 {
		n, el := repeat(p.budget(), func() { buf = data.AppendSampleBatchEnc(buf[:0], batch, enc) })
		p.set("data.encode_mb_s", mbPerS(payload*float64(n), el))
		return map[string]int64{"bytes": int64(len(buf)), "calls": int64(n)}
	})
	p.span("DecodeSampleBatchInto", "data", func() map[string]int64 {
		var dst []data.Sample
		var err error
		n, el := repeat(p.budget(), func() {
			if dst, err = data.DecodeSampleBatchInto(dst[:0], buf); err != nil {
				p.fail("data", err)
			}
		})
		p.set("data.decode_mb_s", mbPerS(payload*float64(n), el))
		return map[string]int64{"samples": int64(len(dst)), "calls": int64(n)}
	})
	return buf
}

// transportProbe measures the TCP layer between ranks 0 and 1: small-message
// round trips, 1 MiB data frames plain, encoded exchange batches with
// Compress negotiated, and the codec that compression runs.
func (p *prober) transportProbe(batch []byte) (streamMBs float64, pingpong time.Duration) {
	const tagPing, tagData, tagAck = 1, 2, 3
	stream := func(c *mpi.Comm, payload []byte, frames int) time.Duration {
		switch c.Rank() {
		case 0:
			t0 := time.Now()
			for i := 0; i < frames; i++ {
				c.Send(1, tagData, payload)
			}
			c.Recv(1, tagAck)
			return time.Since(t0)
		case 1:
			for i := 0; i < frames; i++ {
				c.Recv(0, tagData)
			}
			c.Send(0, tagAck, []byte{1})
		}
		return 0
	}
	p.onWorld("pingpong+stream", "transport", false, func(c *mpi.Comm) error {
		trips := make([]time.Duration, p.count(500))
		ball := make([]byte, 8)
		for i := range trips {
			switch c.Rank() {
			case 0:
				t := time.Now()
				c.Send(1, tagPing, ball)
				c.Recv(1, tagPing)
				trips[i] = time.Since(t)
			case 1:
				c.Recv(0, tagPing)
				c.Send(0, tagPing, ball)
			}
		}
		frames := p.count(128)
		el := stream(c, make([]byte, mib), frames)
		if c.Rank() == 0 {
			s := durationsUS(trips)
			pingpong = time.Duration(median(s) * float64(time.Microsecond))
			p.set("transport.pingpong_us_p50", median(s))
			p.set("transport.pingpong_us_p90", tail(s))
			streamMBs = mbPerS(float64(frames)*mib, el)
			p.set("transport.stream_mb_s", streamMBs)
		}
		return nil
	})
	p.onWorld("stream compressed", "transport", true, func(c *mpi.Comm) error {
		// wirecomp's speed depends on the data by orders of magnitude: time
		// one frame, then send up to 32, as many as fit four probe budgets.
		one := stream(c, batch, 1)
		frames := agree(c, max(2, min(p.count(32), int(4*p.budget()/(one+1)))))
		el := stream(c, batch, frames)
		if c.Rank() == 0 {
			p.set("transport.stream_z_mb_s", mbPerS(float64(frames*len(batch)), el))
		}
		return nil
	})
	p.span("wirecomp", "transport", func() map[string]int64 {
		var z, raw []byte
		n, el := repeat(p.budget(), func() { z = wirecomp.Encode(z[:0], batch) })
		p.set("transport.wirecomp_enc_mb_s", mbPerS(float64(n*len(batch)), el))
		p.set("transport.wirecomp_ratio", float64(len(batch))/float64(len(z)))
		var err error
		n, el = repeat(p.budget(), func() {
			if raw, err = wirecomp.Decode(raw[:0], z); err != nil {
				p.fail("transport", err)
			}
		})
		p.set("transport.wirecomp_dec_mb_s", mbPerS(float64(n*len(batch)), el))
		return map[string]int64{"raw_bytes": int64(len(batch)), "encoded_bytes": int64(len(z))}
	})
	return streamMBs, pingpong
}

// exchangeQ is the exchange fraction the shuffle probes plan with: the
// workload's own under PLS, and the paper's 0.25 for the workloads that run
// no exchange, so that the layer has a number on every workload's shapes.
func (w workload) exchangeQ() float64 {
	if w.strategy.Kind == shuffle.PartialLocal {
		return w.strategy.Q
	}
	return 0.25
}

// shuffleProbe times Algorithm 1's planning and the exchange itself with no
// training around it: a Scheduler under the workload's encoding, dedup and
// compression, driven through the trainer's own call sequence (Scheduling,
// one Communicate per iteration, Synchronize, CleanLocalStorage) so that
// frames have the size they have in the run. It returns the median epoch
// exchange time of the slowest rank.
func (p *prober) shuffleProbe() time.Duration {
	w, q := p.w, p.w.exchangeQ()
	parts, err := shuffle.Partition(w.n, ranks, p.b.seed)
	if err != nil {
		p.fail("shuffle", err)
		return 0
	}
	p.span("PlanExchange", "shuffle", func() map[string]int64 {
		epoch := 0
		plan := func() {
			if _, err := shuffle.PlanExchange(0, ranks, parts[0], q, w.n, p.b.seed, epoch); err != nil {
				p.fail("shuffle", err)
			}
			epoch++
		}
		plan()
		m0, _ := mallocs()
		n, el := repeat(p.budget(), plan)
		m1, _ := mallocs()
		p.set("shuffle.plan_us", us(el)/float64(n))
		p.set("shuffle.plan_allocs", float64(m1-m0)/float64(n+1))
		return map[string]int64{"slots": int64(shuffle.Slots(q, w.n, ranks))}
	})

	var perRank [ranks][]time.Duration
	var allocs uint64
	p.onWorld("RunEpochExchange", "shuffle", w.compress, func(c *mpi.Comm) error {
		st := store.NewLocal(0)
		for _, id := range parts[c.Rank()] {
			if err := st.Put(p.in.ds.Train[id]); err != nil {
				return err
			}
		}
		sched, err := shuffle.NewScheduler(c, st, q, w.n, p.b.seed)
		if err != nil {
			return err
		}
		if err := sched.SetSampleEncoding(p.encoding()); err != nil {
			return err
		}
		if w.dedup {
			if err := sched.SetWireDedup(train.DefaultWireDedupBudget); err != nil {
				return err
			}
		}
		exchange := func(epoch int) error {
			if err := sched.Scheduling(epoch); err != nil {
				return err
			}
			iters := w.itersPerEpoch()
			chunk := (sched.Slots() + iters - 1) / iters
			for it := 0; it < iters; it++ {
				if _, err := sched.Communicate(chunk); err != nil {
					return err
				}
			}
			if err := sched.Synchronize(); err != nil {
				return err
			}
			return sched.CleanLocalStorage()
		}
		t0 := time.Now()
		if err := exchange(0); err != nil {
			return err
		}
		// 20 epochs where they fit ten probe budgets; 2 at the least.
		epochs := agree(c, max(2, min(p.count(20), int(10*p.budget()/(time.Since(t0)+1)))))
		durs := make([]time.Duration, epochs)
		c.Barrier()
		m0, _ := mallocs()
		for e := range durs {
			t := time.Now()
			if err := exchange(e + 1); err != nil {
				return err
			}
			durs[e] = time.Since(t)
		}
		c.Barrier()
		m1, _ := mallocs()
		perRank[c.Rank()] = durs
		if c.Rank() == 0 {
			allocs = m1 - m0
		}
		return nil
	})
	if p.err != nil {
		return 0
	}
	slowest := make([]float64, len(perRank[0]))
	for e := range slowest {
		for r := range perRank {
			slowest[e] = max(slowest[e], ms(perRank[r][e]))
		}
	}
	p50 := time.Duration(median(slowest) * float64(time.Millisecond))
	moved := float64(ranks*shuffle.Slots(q, w.n, ranks)) * float64(w.sampleBytes())
	p.set("shuffle.exchange_epoch_ms_p50", median(slowest))
	p.set("shuffle.exchange_epoch_ms_p90", tail(slowest))
	p.set("shuffle.exchange_mb_s", mbPerS(moved, p50))
	p.set("shuffle.exchange_allocs_per_epoch", float64(allocs)/float64(len(slowest)))
	return p50
}

// storeProbe measures the storage hierarchy bottom-up on the workload's
// sample size: ingest, PFS-tier shard fetch with its CRC, per-sample reads
// out of a mapped shard, and one rank's epoch streamed through a cache tier
// of the workload's budget. The storage workload probes the dataset it
// trains on; the others ingest up to 32 MiB of their samples for it. It
// returns the per-sample ReadInto time.
func (p *prober) storeProbe() time.Duration {
	dir, took, budget := p.in.dataDir, p.in.ingest, p.w.cacheBytes
	if dir == "" {
		perShard := 32
		n := min(p.w.n, 32*mib/int(p.w.sampleBytes())) / (ranks * perShard) * (ranks * perShard)
		ds := *p.in.ds
		ds.Train, ds.Val = ds.Train[:n], ds.Val[:perShard]
		dir = filepath.Join(p.b.workDir, "probe-dataset")
		defer os.RemoveAll(dir)
		var err error
		if took, err = ingest(dir, &ds, perShard, p.sl); err != nil {
			p.fail("store", err)
			return 0
		}
	}
	sd, err := shard.OpenDataset(dir)
	if err != nil {
		p.fail("store", err)
		return 0
	}
	man := sd.Manifest()
	var fileBytes int64
	for _, b := range man.ShardFileBytes {
		fileBytes += b
	}
	p.set("store.ingest_mb_s", mbPerS(float64(fileBytes), took))
	if budget == 0 {
		// The storage workload's rule: a quarter of the rank's share.
		budget = max(fileBytes/ranks/4, 2*man.MaxShardBytes())
	}

	var img []byte
	p.span("FetchShard", "store", func() map[string]int64 {
		id := 0
		var bytes int64
		n, el := repeat(p.budget(), func() {
			if img, err = sd.FetchShard(id % man.NumShards); err != nil {
				p.fail("store", err)
			}
			bytes += int64(len(img))
			id++
		})
		p.set("store.shard_fetch_mb_s", mbPerS(float64(bytes), el))
		return map[string]int64{"bytes": bytes, "shards": int64(n)}
	})
	if p.err != nil {
		return 0
	}
	var perRead time.Duration
	p.span("Shard.ReadInto", "store", func() map[string]int64 {
		sh, err := shard.FromBytes(img)
		if err != nil {
			p.fail("store", err)
			return nil
		}
		feat := make([]float32, man.FeatureDim)
		n, el := repeat(p.budget(), func() {
			for i := 0; i < sh.Count(); i++ {
				if _, _, _, _, err := sh.ReadInto(i, feat); err != nil {
					p.fail("store", err)
				}
			}
		})
		perRead = el / time.Duration(n*sh.Count())
		p.set("store.read_into_ns", float64(el.Nanoseconds())/float64(n*sh.Count()))
		return map[string]int64{"samples": int64(n * sh.Count())}
	})
	p.span("Tier.OpenEpoch stream", "store", func() map[string]int64 {
		tier, err := cache.New(sd, budget, filepath.Join(p.b.workDir, "probe-cache"))
		if err != nil {
			p.fail("store", err)
			return nil
		}
		defer tier.Close()
		assign, err := shuffle.Corgi2Assign(man.NumShards, ranks, p.b.seed, 0)
		if err != nil {
			p.fail("store", err)
			return nil
		}
		window := max(1, int(budget/(2*man.MaxShardBytes()))) // the trainer's rule
		feat := make([]float32, man.FeatureDim)
		var epochs []float64
		for e := 0; e < p.count(4); e++ {
			plan := shuffle.Corgi2EpochPlan(assign[0], man.ShardSamples, window, p.b.seed, e, 0)
			t0 := time.Now()
			stream, err := tier.OpenEpoch(plan.Windows, plan.Bounds, plan.Order)
			if err != nil {
				p.fail("store", err)
				return nil
			}
			for {
				if _, _, _, err := stream.ReadInto(feat); err == io.EOF {
					break
				} else if err != nil {
					p.fail("store", err)
					break
				}
			}
			stream.Close()
			epochs = append(epochs, ms(time.Since(t0)))
		}
		p.set("store.stream_epoch_ms", median(epochs))
		st := tier.Stats()
		return map[string]int64{"pfs_read_bytes": st.PFSReadBytes, "hits": st.Hits, "misses": st.Misses, "evictions": st.Evictions}
	})
	return perRead
}

// checkpointProbe times one rank's snapshot path on the workload's model:
// the sections the trainer snapshots (weights, optimizer moments, stored
// sample IDs) encoded, durably written and committed, then read back.
func (p *prober) checkpointProbe() {
	model, err := p.w.model().Build(p.b.seed, p.b.seed)
	if err != nil {
		p.fail("checkpoint", err)
		return
	}
	opt := nn.NewSGD(0.9, 1e-4)
	opt.Step(model.Params(), 0.05) // materialise the momentum buffers
	var weights, moments bytes.Buffer
	if err := nn.SaveWeights(&weights, model); err != nil {
		p.fail("checkpoint", err)
		return
	}
	if err := nn.SaveOptimizerState(&moments, opt); err != nil {
		p.fail("checkpoint", err)
		return
	}
	sections := map[string][]byte{
		"weights":   weights.Bytes(),
		"optimizer": moments.Bytes(),
		"store":     make([]byte, 8*p.w.n/ranks), // one rank's sample IDs
	}
	dir := filepath.Join(p.b.workDir, "probe-ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		p.fail("checkpoint", err)
		return
	}
	defer os.RemoveAll(dir)
	path := checkpoint.RankPath(dir, 0)
	var image []byte
	p.span("EncodeSnapshot", "checkpoint", func() map[string]int64 {
		n, el := repeat(p.budget(), func() { image = checkpoint.EncodeSnapshot(sections) })
		p.set("checkpoint.bytes_per_rank", float64(len(image)))
		p.set("checkpoint.encode_mb_s", mbPerS(float64(n*len(image)), el))
		return map[string]int64{"bytes": int64(len(image))}
	})
	p.span("WriteTemp+Commit", "checkpoint", func() map[string]int64 {
		var commits []float64
		for i := 0; i < p.count(20); i++ {
			t0 := time.Now()
			if err := checkpoint.WriteTemp(path, image); err != nil {
				p.fail("checkpoint", err)
				return nil
			}
			if err := checkpoint.Commit(path); err != nil {
				p.fail("checkpoint", err)
				return nil
			}
			commits = append(commits, ms(time.Since(t0)))
		}
		p.set("checkpoint.write_commit_ms", median(commits))
		return map[string]int64{"commits": int64(len(commits))}
	})
	p.span("ReadRankFile", "checkpoint", func() map[string]int64 {
		n, el := repeat(p.budget(), func() {
			if _, err := checkpoint.ReadRankFile(path); err != nil {
				p.fail("checkpoint", err)
			}
		})
		p.set("checkpoint.restore_ms", ms(el)/float64(n))
		return map[string]int64{"reads": int64(n)}
	})
}

// perfmodelProbe puts internal/perfmodel's prediction beside the measured
// epoch: a cluster.Machine whose rates are this run's probe results and the
// GEMM-calibrated profile of the workload's model. Diagnostic only.
func (p *prober) perfmodelProbe(measuredEpoch, allreduce, readInto, pingpong time.Duration, streamMBs float64) {
	p.span("EpochTime", "perfmodel", func() map[string]int64 {
		prof, err := perfmodel.CalibratedProfile(p.w.model(), p.w.batch)
		if err != nil {
			p.fail("perfmodel", err)
			return nil
		}
		readBW := float64(p.w.sampleBytes()) / readInto.Seconds()
		mc := cluster.Machine{
			Name: "probed", WorkersPerNode: ranks, Nodes: 1,
			LocalReadBW: readBW, LocalSeqBW: readBW,
			PFSEffectiveBW: ranks * readBW, PFSPerClientBW: readBW,
			InjectionBW:     streamMBs * 1e6,
			ExchangeLatency: pingpong.Seconds() / 2,
			// EpochTime charges 2·ParamBytes/AllreduceBW per step: make that
			// the measured all-reduce.
			AllreduceBW: 2 * float64(prof.ParamBytes) / allreduce.Seconds(),
		}
		bd, err := perfmodel.EpochTime(mc, perfmodel.Workload{N: p.w.n, BytesPerSample: p.w.sampleBytes(),
			LocalBatch: p.w.batch, Model: prof}, ranks, p.w.strategy)
		if err != nil {
			p.fail("perfmodel", err)
			return nil
		}
		pred := bd.Total() * 1e3
		p.set("perfmodel.epoch_pred_ms", pred)
		p.set("perfmodel.residual_pct", 100*(pred-ms(measuredEpoch))/ms(measuredEpoch))
		return nil
	})
}
