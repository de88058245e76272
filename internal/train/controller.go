// Closed-loop shuffle controller wiring (DESIGN.md §16). The decision
// geometry is analysis.DecideQ; the trajectory is the worker's q and qReason,
// the one copy of the fraction in force. This file owns the round that makes
// one decision per epoch bitwise-identical on every rank:
//
//  1. After epoch e's collectives settle, every rank records two
//     DETERMINISTIC observations — the total-variation distance between
//     the labels it trained on and the global label distribution, and a
//     MODELED exchange/compute cost ratio at fixed reference rates. Never
//     wall-clock: two same-seed worlds observe identically.
//  2. One Gather ships the observations to the group root, which reduces
//     them to the worst rank on each axis and steps analysis.DecideQ.
//  3. agreeQ: one Bcast carries the root's (epoch, Q, reason); every member
//     checks the epoch stamp and installs the root's float64 verbatim, and
//     epoch e+1's plan is drawn from the shared seed at the new fraction.
//
// Both collectives run under the same Guard as the epoch itself, so a peer
// death mid-round funnels into the ordinary degrade recovery, whose resync
// runs the very same agreeQ from the new root.
package train

import (
	"fmt"

	"plshuffle/internal/analysis"
	"plshuffle/internal/mpi"
)

// ReasonSchedule is the trajectory label of an open-loop schedule replay —
// the one reason the closed loop never emits (see analysis.QReasons for the
// decision reasons proper).
const ReasonSchedule = "schedule"

// Fixed reference rates for the modeled cost ratio. The absolute values are
// a nominal 1 GB/s interconnect against 10 GFLOP/s of compute; only their
// RATIO matters (it scales where "exchange stops hiding behind compute"
// trips), and fixing both keeps the observation a pure function of the
// run's configuration and seed.
const (
	refWireBytesPerSec = 1e9
	refFlopsPerSec     = 1e10
)

// initController starts the trajectory at Strategy.Q clamped into
// [analysis.MinQ, analysis.MaxQ], so the first epoch already respects the
// controller's bounds, and fixes the dataset's global label histogram.
func (w *worker) initController() {
	cfg := w.cfg
	w.setQ(min(max(cfg.Strategy.Q, analysis.MinQ), analysis.MaxQ), analysis.ReasonHold)
	n := len(cfg.Dataset.Train)
	w.globalHist = make([]float64, cfg.Dataset.Classes)
	for _, s := range cfg.Dataset.Train {
		w.globalHist[s.Label]++
	}
	for i := range w.globalHist {
		w.globalHist[i] /= float64(n)
	}
}

// setQ installs the fraction the next epoch plans with and the reason that
// set it (empty while Q is the fixed Strategy.Q), and shows it on the
// pls_controller_q gauge.
func (w *worker) setQ(q float64, reason string) {
	w.q, w.qReason = q, reason
	w.cm.Q.Set(q)
}

// observeEpoch records the epoch's controller observations from the sample
// IDs this rank trained on and the epoch's final exchange volume.
func (w *worker) observeEpoch(trained []int, es *EpochStats) {
	// Label-exposure skew: total-variation distance between the epoch's
	// trained-label distribution and the global one. Zero for a perfectly
	// representative epoch, approaching one when the rank saw only classes
	// the rest of the world barely holds.
	hist := make([]float64, len(w.globalHist))
	for _, id := range trained {
		if l := w.cfg.Dataset.Train[id].Label; l >= 0 && l < len(hist) {
			hist[l]++
		}
	}
	var skew float64
	if n := float64(len(trained)); n > 0 {
		for c, g := range w.globalHist {
			d := hist[c]/n - g
			if d < 0 {
				d = -d
			}
			skew += d
		}
		skew /= 2
	}
	// Modeled cost ratio: the epoch's simulated exchange bytes at the
	// reference wire rate against its compute at ~6 flops per parameter per
	// sample (forward + backward). Above 1, the exchange could no longer
	// hide behind compute on this rank even in the overlapped schedule.
	comm := 0.0
	if flops := float64(len(trained)) * 6 * float64(w.paramCount()); flops > 0 {
		comm = (float64(es.ExchangeBytes) / refWireBytesPerSec) /
			(flops / refFlopsPerSec)
	}
	w.obsSkew, w.obsComm = skew, comm
}

func (w *worker) paramCount() int {
	n := 0
	for _, p := range w.params {
		n += len(p.W)
	}
	return n
}

// controllerStep runs the epoch-boundary control round described in the
// file header. Call it under a Guard after epoch's stats are final and
// before the checkpoint for epoch+1 snapshots.
func (w *worker) controllerStep(epoch int) error {
	root := w.comm.GroupRanks()[0]
	obs := mpi.Gather(w.comm, []float64{w.obsSkew, w.obsComm}, root)
	if w.comm.Rank() == root {
		skew, comm := worstRank(obs)
		q, reason, err := analysis.DecideQ(analysis.QSignal{
			N: len(w.cfg.Dataset.Train), M: w.comm.GroupSize(), B: w.cfg.BatchSize,
			Q: w.q, Skew: skew, CommRatio: comm,
		})
		if err != nil {
			return fmt.Errorf("epoch %d: %w", epoch, err)
		}
		w.setQ(q, reason)
	}
	if err := w.agreeQ(epoch); err != nil {
		return err
	}
	w.cm.Note(w.qReason) // a decision, not only an adoption
	return nil
}

// worstRank reduces the gathered (skew, comm ratio) pairs to the worst rank
// on each axis: the most skewed rank justifies more exchange, and the
// exchange must hide behind compute on EVERY rank, so the largest ratio
// governs. Maxima are order-independent, so the decision does not depend on
// gather order.
func worstRank(obs []float64) (skew, comm float64) {
	for i := 0; i+1 < len(obs); i += 2 {
		skew, comm = max(skew, obs[i]), max(comm, obs[i+1])
	}
	return skew, comm
}

// agreeQ is the one Q agreement of the epoch boundary: the group root's
// (epoch, Q, reason) rides one Bcast and every member installs it. The
// steady-state decision, the survivors of a shrink and the members and
// joiners of a grow all agree through here (resync). Q travels as the root's
// float64 — the trajectory is the root's, bit for bit. The collective's tag
// carries the membership generation; the epoch stamp catches a member that
// reached a different boundary. No exchange window is open at any call site,
// and the next one opens a plan drawn at the agreed Q.
func (w *worker) agreeQ(epoch int) error {
	buf := []float64{float64(epoch), w.q, float64(analysis.ReasonCode(w.qReason))}
	mpi.Bcast(w.comm, buf, w.comm.GroupRanks()[0])
	if int(buf[0]) != epoch {
		return fmt.Errorf("stale Q decision: root stamped epoch %d, this rank stands at epoch %d", int(buf[0]), epoch)
	}
	w.setQ(buf[1], analysis.ReasonFromCode(uint8(buf[2])))
	return nil
}
