package train

// The per-epoch loop (DESIGN.md §9, §12): batch assembly from the in-memory
// stores or the corgi2 cache-tier stream, the overlapped sample exchange, the
// bucketed gradient sync, and sharded validation.

import (
	"fmt"
	"runtime"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/tensor"
)

// launchReadyBuckets is the Sequential.BackwardWithHook callback: when
// backward completes a layer that closes one or more buckets, it launches
// their non-blocking averaging all-reduces on the buckets' own ranges of
// the model's gradient arena — the gradients backward just wrote are the
// ring's buffer, nothing is flattened. Under SGD each ring also runs the
// bucket's owner step and all-gathers weights (mpi.IAllreduceStep). It runs
// on the backward critical path, so it only launches; the rings progress
// on their own goroutines while earlier layers keep computing (into other
// ranges of the arenas).
func (w *worker) launchReadyBuckets(layer int) {
	launched := false
	grads, weights := w.model.Grads(), w.model.Weights()
	for _, bi := range w.plan.ReadyAt(layer) {
		b := w.plan.Buckets[bi]
		if w.bucketSteps != nil {
			w.bucketReqs[bi] = mpi.IAllreduceStep(w.comm, grads[b.Lo:b.Hi], weights[b.Lo:b.Hi], mpi.OpAvg, w.bucketBounds[bi], w.bucketSteps[bi])
		} else {
			w.bucketReqs[bi] = mpi.IAllreduceChunks(w.comm, grads[b.Lo:b.Hi], mpi.OpAvg, w.bucketBounds[bi])
		}
		launched = true
	}
	if launched {
		// Give in-flight rings a scheduling slot at each bucket boundary.
		// Backward's layer kernels have no yield points, so on oversubscribed
		// or single-P runtimes a launched ring could otherwise starve until
		// the drain — exactly the exposure this path exists to remove. The
		// yield is nanoseconds when there is nothing runnable.
		runtime.Gosched()
	}
}

// drainBuckets completes the overlapped GEWU phase: wait for each bucket's
// all-reduce in launch order. Under SGD the rings have stepped the weights
// already; under LARS the drain steps just that bucket's parameters
// (Optimizer.StepPartial) from the averaged gradients the ring left in
// place, so the weight update of early buckets overlaps the still-in-flight
// later ones. Exposed wait, total in-flight time, and exact wire bytes are
// accounted per bucket.
func (w *worker) drainBuckets() {
	for bi, req := range w.bucketReqs {
		b := w.plan.Buckets[bi]
		tw := time.Now()
		req.Wait()
		sent, recv := req.WireBytes()
		w.bookGradSync(time.Since(tw), req.Elapsed(), sent+recv)
		if w.bucketSteps == nil {
			w.opt.StepPartial(w.params, b.FirstParam, b.LastParam, w.lr)
		}
		w.bucketReqs[bi] = nil
	}
}

// bookGradSync books one gradient all-reduce: the time the rank's main
// goroutine was blocked on it, its total time in flight, and its exact wire
// bytes (zero on inproc).
func (w *worker) bookGradSync(wait, inFlight time.Duration, wireBytes int64) {
	w.tm.GEWUWaitNs.Add(int64(wait))
	w.tm.GEWUCommNs.Add(int64(inFlight))
	w.tm.GradWireBytes.Add(wireBytes)
}

// finishExchange closes the open epoch's exchange window and records its
// volumes. Under degrade the group settles it (Scheduler.Settle: one
// agreement commits it on every member or resets it on every member, so a
// death cannot split the commit); under abort a death ends the run, so the
// commit stays local (Synchronize, CleanLocalStorage) and costs no round.
func (w *worker) finishExchange(es *EpochStats) error {
	testAgreeHook(w.comm, "exchange", w.exchEpoch)
	var err error
	if w.cfg.OnPeerFail == "degrade" {
		err = w.exchanger.Settle()
		w.exchEpoch = -1 // committed or reset: either way closed
	} else if err = w.exchanger.Synchronize(); err == nil {
		err = w.exchanger.CleanLocalStorage()
		w.exchEpoch = -1
	}
	w.recordExchange(es)
	return err
}

// recordExchange reads the exchange window's counters into es once it has
// closed (settled by finishExchange or reset by the recovery path): the
// samples it brought in, the scheduler's per-epoch wire and dedup deltas —
// what went on the wire is the epoch's traffic even when it was reset —
// and the fraction it realized.
func (w *worker) recordExchange(es *EpochStats) {
	for _, s := range w.exchanger.Received() {
		es.ExchangeBytes += s.Bytes
	}
	// On a wire backend, the exchange's true network volume (exact frame
	// sizes; the traffic itself overlaps with compute, so transport counter
	// deltas cannot attribute it to this phase).
	if w.comm.Transport().Stats().Wire {
		sent, recv := w.exchanger.WireTraffic()
		es.ExchangeWireBytes += sent + recv
	}
	hits, saved := w.exchanger.DedupStats()
	es.DedupHits += hits
	es.DedupBytesSaved += saved
	es.EffectiveQ = w.exchanger.EffectiveQ()
}

// syncBatchNormStats averages every BatchNorm layer's running mean and
// variance across all workers (one allreduce over the concatenated
// statistics).
func (w *worker) syncBatchNormStats() {
	var stats []float32
	var layers []*nn.BatchNorm
	for _, l := range w.model.Layers {
		if bn, ok := l.(*nn.BatchNorm); ok {
			layers = append(layers, bn)
			stats = append(stats, bn.RunMean...)
			stats = append(stats, bn.RunVar...)
		}
	}
	if len(layers) == 0 {
		return
	}
	mpi.Allreduce(w.comm, stats, mpi.OpSum)
	inv := 1 / float32(w.comm.GroupSize())
	off := 0
	for _, bn := range layers {
		for j := range bn.RunMean {
			bn.RunMean[j] = stats[off+j] * inv
		}
		off += len(bn.RunMean)
		for j := range bn.RunVar {
			bn.RunVar[j] = stats[off+j] * inv
		}
		off += len(bn.RunVar)
	}
}

// planEpoch is this rank's plan for epoch: shuffle.PlanEpoch over the
// collective group as a world of n samples and the local store, at the
// fraction in force (w.q). A shrunk group plans over its indices, which are
// mapped back to the world ranks the exchange addresses; a full world is
// its own group.
func (w *worker) planEpoch(epoch, n int) (shuffle.EpochPlan, error) {
	strategy := w.cfg.Strategy
	strategy.Q = w.q
	world := shuffle.World{Rank: w.comm.GroupRank(), Size: w.comm.GroupSize(), N: n}
	var ids []int
	if w.local != nil {
		ids = w.local.IDs()
	}
	if w.shards != nil {
		man := w.shards.Manifest()
		world.Shards, world.ShardSamples, world.Window = man.NumShards, man.ShardSamples, w.corgiWindow
	}
	plan, err := shuffle.PlanEpoch(strategy, world, w.cfg.Seed, epoch, ids)
	if err != nil || world.Size == w.comm.Size() {
		return plan, err
	}
	group, x := w.comm.GroupRanks(), plan.Exchange
	for i := range x.Dests {
		x.Dests[i], x.Senders[i] = group[x.Dests[i]], group[x.Senders[i]]
	}
	return plan, nil
}

// stampQ records the fraction in force and its reason in es when a
// trajectory (AutoQ or the schedule hook) sets it; a fixed Q leaves both zero.
func (w *worker) stampQ(es *EpochStats) {
	if w.qReason != "" {
		es.ControllerQ, es.ControllerReason = w.q, w.qReason
	}
}

func (w *worker) runEpoch(epoch int, es *EpochStats) error {
	// The fraction this epoch plans with is known before anything in it can
	// fail, so it is recorded first: a survivor whose epoch is cut short by a
	// peer death (as early as its exchange's Open) still reports the Q every
	// other member reports for it.
	if sch := w.cfg.qSchedule; len(sch) > 0 {
		// Open-loop replay: pin this epoch's fraction from the schedule
		// before planning (past the end, the last entry holds).
		w.setQ(sch[min(epoch, len(sch)-1)], ReasonSchedule)
		w.cm.Note(ReasonSchedule)
	}
	w.stampQ(es)
	n := len(w.cfg.Dataset.Train)
	if (w.comm.GroupSize() < w.comm.Size() || w.shortData) && w.local != nil {
		// Degraded world (or one resumed from a degraded snapshot): the dead
		// ranks' unexchanged samples are gone, so the stores hold fewer than
		// N/M. The members agree on the smallest store with one group-min
		// all-reduce and plan as a world of that many samples per member: the
		// same iteration count everywhere, no rank slicing past its own sample
		// list, and a balanced exchange at the configured Q.
		buf := []int{w.local.Len()}
		mpi.Allreduce(w.comm, buf, mpi.OpMin)
		if buf[0] == 0 {
			return fmt.Errorf("epoch %d: a surviving rank has no local samples left", epoch)
		}
		n = w.comm.GroupSize() * buf[0]
	}
	plan, err := w.planEpoch(epoch, n)
	if err != nil {
		return err
	}
	if w.tier != nil {
		// The read half of a shard plan: the cache tier streams it.
		if w.stream, err = w.tier.OpenEpoch(plan.Corgi2.Windows, plan.Corgi2.Bounds, plan.Corgi2.Order); err != nil {
			return err
		}
		defer func() {
			if w.stream != nil {
				w.stream.Close()
				w.stream = nil
			}
		}()
	}
	// Iteration count and effective batch are derived from the GLOBAL
	// shape (drop-last semantics, the plan's Floor): every rank must execute
	// the same number of collectives per epoch, even when N is not divisible
	// by M and local counts differ by one.
	b, minLocal := w.cfg.BatchSize, plan.Floor
	if b > minLocal {
		b = minLocal
	}
	iters := minLocal / b

	// Open the plan's exchange and derive the per-iteration chunk (Q·b
	// samples per iteration, Section III-C).
	chunk := 0
	if w.exchanger != nil {
		if err := w.exchanger.Open(plan.Exchange, shuffle.ExchangeTag(epoch)); err != nil {
			return err
		}
		w.exchEpoch = epoch
		chunk = (w.exchanger.Slots() + iters - 1) / iters
	}

	w.lr = w.sched.LR(float64(epoch))
	w.tm.Epoch.SetInt(int64(epoch))
	var lossSum float64
	for it := 0; it < iters; it++ {
		if w.cfg.testIterHook != nil {
			if err := w.cfg.testIterHook(epoch, it); err != nil {
				return err
			}
		}
		w.tm.Iteration.SetInt(int64(it))
		// Phase: I/O — assemble the mini-batch from storage (the in-memory
		// stores, or the cache-tier stream under Corgi2).
		t0 := time.Now()
		var batch []int
		if w.stream != nil {
			if err := w.loadBatchStream(b, es); err != nil {
				return fmt.Errorf("epoch %d iteration %d: %w", epoch, it, err)
			}
		} else {
			batch = plan.Order[it*b : (it+1)*b]
			if err := w.loadBatch(batch, plan.FromPFS, es); err != nil {
				return fmt.Errorf("epoch %d iteration %d: %w", epoch, it, err)
			}
		}
		w.tm.IONs.Add(int64(time.Since(t0)))
		w.tm.Samples.Add(int64(b))

		// Phase: overlapped sample exchange (post this iteration's chunk).
		if w.exchanger != nil && chunk > 0 {
			t0 = time.Now()
			if _, err := w.exchanger.Communicate(chunk); err != nil {
				return err
			}
			w.tm.ExchangeNs.Add(int64(time.Since(t0)))
		}

		// Phase: forward + backward. The backward pass launches each
		// gradient bucket's non-blocking all-reduce as soon as
		// its last layer's gradients land (Figure 4's overlap discipline,
		// applied to the gradient exchange): the bucket rings progress on
		// background goroutines while the earlier layers keep computing.
		t0 = time.Now()
		// Reclaim the previous step's activation workspaces wholesale.
		// Nothing arena-backed is live across this boundary: the last
		// iteration's outputs, gradients-of-activations, and loss buffers
		// are all dead once its optimizer step ran.
		w.arena.Reset()
		logits := w.model.Forward(w.xBuf, true)
		lossSum += w.loss.Forward(logits, w.yBuf)
		w.model.BackwardWithHook(w.loss.Backward(), w.bucketHook)
		w.tm.FWBWNs.Add(int64(time.Since(t0)))
		w.tm.ArenaBytes.SetInt(4 * int64(w.arena.Cap()))

		// Phase: gradient exchange + weight update (Equation 1: average
		// the per-worker gradients, then step): drain the bucket requests in
		// launch order, stepping per bucket. Without OverlapGrads the plan
		// is one bucket launched at the very end of backward, so its whole
		// ring is waited for here (the A/B baseline).
		t0 = time.Now()
		w.drainBuckets()
		w.tm.GEWUNs.Add(int64(time.Since(t0)))
		w.tm.OptimizerStateBytes.SetInt(4 * int64(w.opt.StateFloats()))
	}

	// Epoch boundary: finish the exchange and swap storage.
	if w.exchanger != nil {
		t0 := time.Now()
		if err := w.finishExchange(es); err != nil {
			return err
		}
		w.tm.ExchangeNs.Add(int64(time.Since(t0)))
	}
	if w.cfg.AutoQ {
		// Record the epoch's deterministic controller observations now that
		// the exchange volumes are final; the control gather at the epoch
		// boundary ships them to the root.
		w.observeEpoch(plan.Order[:iters*b], es)
	}
	if w.stream != nil {
		w.stream.Close()
		w.stream = nil
		// The epoch's PFS traffic is the tier's cumulative delta (real file
		// bytes — the misses plus prefetches this epoch actually paid for).
		st := w.tier.Stats()
		es.PFSReadBytes += st.PFSReadBytes - w.pfsAccounted
		w.pfsAccounted = st.PFSReadBytes
		// Tell the tier the next epoch's reads now (the plan is as pure across
		// a group boundary as within one): it ranks what is resident by that
		// order and lands the first windows behind validation and the
		// checkpoint — the storage-tier analogue of the Figure 4 overlap.
		if next := epoch + 1; next < w.cfg.Epochs {
			nextPlan, err := w.planEpoch(next, n)
			if err != nil {
				return err
			}
			for _, win := range nextPlan.Corgi2.Windows {
				w.tier.Prefetch(win)
			}
		}
	}

	// Average the reported loss across workers so every rank logs the
	// same curve.
	buf := []float64{lossSum / float64(iters)}
	mpi.Allreduce(w.comm, buf, mpi.OpSum)
	es.TrainLoss = buf[0] / float64(w.comm.GroupSize())
	return nil
}

// loadBatchStream fills the reusable batch tensors from the cache-tier
// stream: features land directly in the batch tensor's rows (ReadInto, one
// copy, zero allocations in steady state).
func (w *worker) loadBatchStream(n int, es *EpochStats) error {
	dim := w.cfg.Dataset.FeatureDim
	if w.xBuf == nil || w.xBuf.Rows != n {
		w.xBuf = tensor.New(n, dim)
		w.yBuf = make([]int, n)
	}
	for i := 0; i < n; i++ {
		_, label, sim, err := w.stream.ReadInto(w.xBuf.Row(i))
		if err != nil {
			return err
		}
		w.yBuf[i] = label
		es.LocalReadBytes += sim
	}
	return nil
}

// loadBatch fills the reusable batch tensors from the plan's read source:
// the PFS view (fromPFS) or the local store.
func (w *worker) loadBatch(ids []int, fromPFS bool, es *EpochStats) error {
	dim := w.cfg.Dataset.FeatureDim
	if w.xBuf == nil || w.xBuf.Rows != len(ids) {
		w.xBuf = tensor.New(len(ids), dim)
		w.yBuf = make([]int, len(ids))
	}
	read, booked := w.local.Get, &es.LocalReadBytes
	if fromPFS {
		read, booked = w.readPFS, &es.PFSReadBytes
	}
	for i, id := range ids {
		s, err := read(id)
		if err != nil {
			return err
		}
		*booked += s.Bytes
		copy(w.xBuf.Row(i), s.Features)
		w.yBuf[i] = s.Label
	}
	return nil
}

// readPFS reads a sample from the shared training set, where global
// shuffling draws its batches (Config.Validate pins Train[id].ID == id).
func (w *worker) readPFS(id int) (data.Sample, error) { return w.cfg.Dataset.Train[id], nil }

// validate evaluates the model on a shard of the validation set and
// combines correct counts across workers. Each worker evaluates with its
// own replica — weights are identical, but batch-norm running statistics
// are local, so a worker whose statistics drifted (the LS failure mode)
// drags the global accuracy down exactly as in real data-parallel eval.
func (w *worker) validate() float64 {
	val := w.cfg.Dataset.Val
	if len(val) == 0 {
		return 0
	}
	// Shard over the collective GROUP so a shrunken world still covers the
	// whole validation set (dead ranks' shards are re-spread).
	m, r := w.comm.GroupSize(), w.comm.GroupRank()
	lo := r * len(val) / m
	hi := (r + 1) * len(val) / m
	correct := 0
	const evalBatch = 256
	for start := lo; start < hi; start += evalBatch {
		end := start + evalBatch
		if end > hi {
			end = hi
		}
		// Eval batches share the step arena: reset per batch, so a long
		// validation shard never grows the arena past one batch's worth.
		w.arena.Reset()
		w.valBuf = tensor.EnsureShapeArena(w.arena, w.valBuf, end-start, w.cfg.Dataset.FeatureDim)
		x := w.valBuf
		y := make([]int, end-start)
		for i := start; i < end; i++ {
			copy(x.Row(i-start), val[i].Features)
			y[i-start] = val[i].Label
		}
		logits := w.model.Forward(x, false)
		pred := logits.ArgmaxRows()
		for i := range pred {
			if pred[i] == y[i] {
				correct++
			}
		}
	}
	w.tm.ArenaBytes.SetInt(4 * int64(w.arena.Cap()))
	buf := []float64{float64(correct)}
	mpi.Allreduce(w.comm, buf, mpi.OpSum)
	return buf[0] / float64(len(val))
}
