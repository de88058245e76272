package shuffle

// Peer-failure degradation (DESIGN.md §10): the scheduler's one decision about
// a dead peer and the bookkeeping that shrinks an epoch's plan around it.

import (
	"fmt"
	"math"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport"
)

// DegradedSlots reports the current epoch's canceled exchange slots:
// sendSlots had a dead destination (their samples are retained locally),
// recvSlots had a dead sender and were forfeited (samples that landed
// before the death still count as received). Both are zero when every
// peer is live. Final after Synchronize; reset by Scheduling. Safe from any
// goroutine — it backs the pls_exchange_degraded_slots gauge.
func (s *Scheduler) DegradedSlots() (sendSlots, recvSlots int) {
	return int(s.degradedSend.Load()), int(s.degradedRecv.Load())
}

// EffectiveQ returns the exchange fraction the current epoch actually
// realized: the opened plan's Q scaled by the surviving fraction of its
// slots (averaging the send and receive directions, which degrade
// independently). With no deaths it equals the plan's Q. Safe from any
// goroutine — it backs the pls_exchange_effective_q gauge.
func (s *Scheduler) EffectiveQ() float64 { return math.Float64frombits(s.effQ.Load()) }

// setDegraded records the current epoch's canceled slots and the exchange
// fraction they leave of the plan's Q — the one place either is written.
func (s *Scheduler) setDegraded(sendSlots, recvSlots int) {
	s.degradedSend.Store(int64(sendSlots))
	s.degradedRecv.Store(int64(recvSlots))
	eff := s.plan.Q
	if k := s.plan.Slots(); k > 0 {
		eff = s.plan.Q * float64(2*k-sendSlots-recvSlots) / float64(2*k)
	}
	s.effQ.Store(math.Float64bits(eff))
}

// peerFailed is the scheduler's one decision about a peer death, however it
// was observed (the failure registry, a send, the blocking drain); a death it
// has already accounted for is no news under either policy. Under the
// abort policy the typed error goes back to the caller. Under degrade the
// death is absorbed: rank is marked dead and the epoch's receive expectation
// rebuilt around the survivors — after scooping any frames that already
// landed (they may carry the dead rank's last samples), so the forfeit count
// is no larger than necessary.
func (s *Scheduler) peerFailed(pe *transport.PeerError) error {
	if s.dead[pe.Rank] {
		return nil
	}
	if !s.degrade {
		return fmt.Errorf("shuffle: epoch %d exchange: %w", s.ObservedEpoch(), pe)
	}
	if s.dead == nil {
		s.dead = make(map[int]bool)
	}
	s.dead[pe.Rank] = true
	if s.state == stateScheduled {
		if err := s.drainLanded(); err != nil {
			return err
		}
	}
	s.recomputeExpectation()
	return nil
}

// notePeerFailures runs peerFailed over every death the transport has
// reported (one it has already absorbed is a no-op there).
func (s *Scheduler) notePeerFailures() error {
	for _, r := range s.comm.FailedPeers() {
		if err := s.peerFailed(s.comm.PeerFailure(r)); err != nil {
			return err
		}
	}
	return nil
}

// drainLanded consumes every exchange frame that has already arrived
// without blocking (no expectation check — it runs while the expectation
// is being rebuilt).
func (s *Scheduler) drainLanded() error {
	for {
		if s.pending == nil {
			s.pending = s.comm.Irecv(mpi.AnySource, s.tag)
		}
		ok, payload, st := s.pending.Test()
		if !ok {
			return nil
		}
		s.pending = nil
		if err := s.ingestFrame(payload, st); err != nil {
			return err
		}
	}
}

// recomputeExpectation rebuilds expected from the plan's per-slot senders:
// slots whose sender is live stay expected; slots whose sender is dead are
// expected only up to what that sender already delivered. Locally
// computable on every survivor — no consensus round.
func (s *Scheduler) recomputeExpectation() {
	fromDead := make(map[int]int, len(s.dead))
	expected := 0
	for _, src := range s.plan.Senders {
		if s.dead[src] {
			fromDead[src]++
		} else {
			expected++
		}
	}
	if s.recvFrom == nil {
		s.recvFrom = make(map[int]int)
	}
	for src, slots := range fromDead {
		if got := s.recvFrom[src]; got < slots {
			expected += got
		} else {
			expected += slots
		}
	}
	// Send-side mirror: slots toward a dead destination are canceled and
	// their samples retained by CleanLocalStorage.
	degradedSend := 0
	for _, d := range s.plan.Dests {
		if s.dead[d] {
			degradedSend++
		}
	}
	s.expected = expected
	s.setDegraded(degradedSend, len(s.plan.Senders)-expected)
}
