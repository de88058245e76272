// Closed-loop shuffle controller wiring (DESIGN.md §16). The decision
// geometry is analysis.DecideQ and the trajectory bookkeeping is
// control.Controller; this file owns the round that makes one decision per
// epoch bitwise-identical on every rank:
//
//  1. After epoch e's collectives settle, every rank records two
//     DETERMINISTIC observations — the total-variation distance between
//     the labels it trained on and the global label distribution, and a
//     MODELED exchange/compute cost ratio at fixed reference rates. Never
//     wall-clock: two same-seed worlds observe identically.
//  2. One Gather ships the observations to the group root, which steps
//     control.Controller.Decide.
//  3. agreeQ: one Bcast carries the root's (epoch, Q, reason); every member
//     checks the epoch stamp, Adopts the root's float64 verbatim, and
//     applies it with Scheduler.SetQ before epoch e+1's Scheduling re-plans
//     from the shared seed at the new fraction.
//
// Both collectives run under the same Guard as the epoch itself, so a peer
// death mid-round funnels into the ordinary degrade recovery, whose resync
// runs the very same agreeQ from the new root.
package train

import (
	"fmt"

	"plshuffle/internal/analysis"
	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle/control"
)

// ReasonSchedule is the trajectory label of an open-loop QSchedule replay —
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

// initController builds the worker's controller from the run configuration:
// the default policy with the operator's clamps, the dataset's global label
// histogram, and Strategy.Q as the trajectory's (clamped) starting point,
// applied to the exchange scheduler before the first epoch plans.
func (w *worker) initController() error {
	cfg := w.cfg
	pol := analysis.DefaultQPolicy()
	if cfg.AutoQMin != 0 || cfg.AutoQMax != 0 {
		pol.MinQ, pol.MaxQ = cfg.AutoQMin, cfg.AutoQMax
	}
	ctrl, err := control.New(control.Config{
		N: len(cfg.Dataset.Train), M: w.comm.GroupSize(), B: cfg.BatchSize, Policy: pol,
	}, cfg.Strategy.Q)
	if err != nil {
		return err
	}
	w.ctrl = ctrl
	w.ctrlQ, w.ctrlReason = ctrl.Q(), analysis.ReasonHold
	if err := w.exchanger.SetQ(w.ctrlQ); err != nil {
		return err
	}
	n := len(cfg.Dataset.Train)
	w.globalHist = make([]float64, cfg.Dataset.Classes)
	for _, s := range cfg.Dataset.Train {
		w.globalHist[s.Label]++
	}
	for i := range w.globalHist {
		w.globalHist[i] /= float64(n)
	}
	return nil
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
	group := w.comm.GroupRanks()
	root := group[0]
	obs := mpi.Gather(w.comm, []float64{w.obsSkew, w.obsComm}, root)
	if w.comm.Rank() == root {
		all := make([]control.Obs, 0, len(group))
		for g := 0; g < len(group); g++ {
			all = append(all, control.Obs{Skew: obs[2*g], CommRatio: obs[2*g+1]})
		}
		d, err := w.ctrl.Decide(epoch, all)
		if err != nil {
			return err
		}
		w.ctrlReason = d.Reason
	}
	if err := w.agreeQ(epoch); err != nil {
		return err
	}
	w.cm.Note(w.ctrlQ, w.ctrlReason) // a decision, not only an adoption
	return nil
}

// agreeQ is the one Q agreement of the epoch boundary: the group root's
// (epoch, Q, reason) rides one Bcast and every member installs it. The
// steady-state decision, the survivors of a shrink and the members and
// joiners of a grow all agree through here (resync). Q travels as the root's
// float64 — the trajectory is the root's, bit for bit. The collective's tag
// carries the membership generation; the epoch stamp catches a member that
// reached a different boundary. The exchange window is closed at every call
// site, so SetQ cannot race a live plan.
func (w *worker) agreeQ(epoch int) error {
	buf := []float64{float64(epoch), w.ctrl.Q(), float64(analysis.ReasonCode(w.ctrlReason))}
	mpi.Bcast(w.comm, buf, w.comm.GroupRanks()[0])
	if int(buf[0]) != epoch {
		return fmt.Errorf("stale Q decision: root stamped epoch %d, this rank stands at epoch %d", int(buf[0]), epoch)
	}
	w.ctrl.Adopt(buf[1])
	// The non-domination threshold moves with the group (a no-op in steady
	// state).
	w.ctrl.SetWorld(w.comm.GroupSize())
	if err := w.exchanger.SetQ(buf[1]); err != nil {
		return err
	}
	w.ctrlQ, w.ctrlReason = buf[1], analysis.ReasonFromCode(uint8(buf[2]))
	w.cm.Q.Set(w.ctrlQ)
	return nil
}
