package shuffle

// The pairwise dedup protocol of the wire-lean exchange (DESIGN.md §13): the
// per-directed-pair caches and the one place a batch is split into reference
// and payload frames.

import (
	"fmt"
	"sort"

	"plshuffle/internal/data"
	"plshuffle/internal/store/cache"
	"plshuffle/internal/transport"
)

// SetWireDedup enables exchange deduplication with the given per-directed-
// pair byte budget (≤ 0 disables). Every rank must configure the same
// budget — the protocol's correctness rests on sender mirror and receiver
// segment evicting in lockstep. Call it before the first Scheduling.
func (s *Scheduler) SetWireDedup(budgetBytes int64) error {
	if s.state != stateIdle {
		return fmt.Errorf("shuffle: SetWireDedup: cannot reconfigure mid-epoch")
	}
	if budgetBytes <= 0 {
		s.dedupBudget = 0
		s.sendMirror, s.recvSegment = nil, nil
		return nil
	}
	s.dedupBudget = budgetBytes
	s.sendMirror = make(map[int]*cache.SampleLRU)
	s.recvSegment = make(map[int]*cache.SampleLRU)
	return nil
}

// InvalidateDedup drops every pairwise dedup cache (both roles). It must
// run on EVERY surviving rank whenever any event could desynchronize a
// pair's mirror and segment — an abandoned epoch (Reset calls it), a peer
// failure recovery — after which both sides rebuild from live traffic. An
// unnecessary invalidation costs only warm-up hits, never correctness.
func (s *Scheduler) InvalidateDedup() {
	for _, c := range s.sendMirror {
		c.Clear()
	}
	for _, c := range s.recvSegment {
		c.Clear()
	}
}

// dedupMirror returns (lazily creating) the sender-side mirror of dest's
// segment for this directed pair.
func (s *Scheduler) dedupMirror(dest int) *cache.SampleLRU {
	c := s.sendMirror[dest]
	if c == nil {
		c = cache.NewSampleLRU(s.dedupBudget, false)
		s.sendMirror[dest] = c
	}
	return c
}

// dedupSegment returns (lazily creating) the receiver-side segment of
// samples src has sent this rank.
func (s *Scheduler) dedupSegment(src int) *cache.SampleLRU {
	c := s.recvSegment[src]
	if c == nil {
		c = cache.NewSampleLRU(s.dedupBudget, true)
		s.recvSegment[src] = c
	}
	return c
}

// DedupStats reports the current epoch's deduplication outcome: exchange
// slots satisfied by reference frames instead of payloads, and the wire
// bytes that avoided — the plain full-batch frame size minus what actually
// shipped (references plus residual batch, post-compression when the
// transport compresses). It is CumulativeDedup's growth since Scheduling.
func (s *Scheduler) DedupStats() (hits int, savedBytes int64) {
	h, saved := s.CumulativeDedup()
	return int(h - s.base.dedupHits), saved - s.base.dedupSaved
}

// CumulativeDedup returns the dedup totals across ALL epochs (same
// accounting as DedupStats, never reset). Safe from any goroutine — it
// backs the pls_exchange_dedup_* telemetry counters.
func (s *Scheduler) CumulativeDedup() (hits, savedBytes int64) {
	return s.dedupHits.Load(), s.dedupSaved.Load()
}

// shipBatch encodes and sends the staged s.batchShip toward dest, applying
// the pairwise dedup protocol (DESIGN.md §13) when enabled: samples the
// sender's mirror proves resident in the receiver's segment travel as a
// compact ID-reference frame, and only the remainder ships as a payload
// batch. The reference frame always precedes the payload frame for the same
// destination, so both sides replay the identical Touch-then-Note sequence
// against their pair caches. dest is never this rank: a self slot sends
// nothing (Communicate).
func (s *Scheduler) shipBatch(dest int) error {
	ship := s.batchShip
	var refs transport.SampleRefs
	var refBytes int64 // what the samples travelling as references would cost as batch entries
	if s.dedupBudget > 0 {
		mirror := s.dedupMirror(dest)
		s.refShip = s.refShip[:0]
		s.shipScratch = s.shipScratch[:0]
		for _, sample := range s.batchShip {
			if mirror.Has(int64(sample.ID)) {
				s.refShip = append(s.refShip, int64(sample.ID))
				refBytes += int64(sample.WireSizeEnc(s.encoding))
			} else {
				s.shipScratch = append(s.shipScratch, sample)
			}
		}
		if len(s.refShip) > 0 {
			// References pay off when the ref frame is smaller than what it
			// elides: the referenced samples' entries, plus the whole payload
			// frame when nothing is left to ship. (The residual batch costs
			// the same either way, so it is never priced — each sample is
			// classified once, here or in the encoder.) With few hits on small
			// samples the ref frame's fixed overhead can exceed that; the
			// sender then simply ships the full batch (a sender-local choice:
			// no ref frame means the receiver replays plain Notes, so the
			// caches stay in lockstep either way).
			sort.Slice(s.refShip, func(i, j int) bool { return s.refShip[i] < s.refShip[j] })
			elided := refBytes
			if len(s.shipScratch) == 0 {
				elided += emptyBatchFrame
			}
			if transport.FrameWireSize(s.refShip) < elided {
				ship, refs = s.shipScratch, s.refShip
				for _, id := range refs {
					mirror.Touch(id)
				}
			}
		}
	}
	var wire int64
	if len(refs) > 0 {
		n, dead, err := s.sendExchangeFrame(dest, refs)
		if err != nil || dead {
			return err
		}
		wire += n
	}
	if len(ship) > 0 {
		s.batchBuf = data.AppendSampleBatchEnc(s.batchBuf[:0], ship, s.encoding)
		// Safe to reuse batchBuf across destinations: the inproc backend
		// clones []byte payloads synchronously and the TCP backend
		// serializes before Send returns (the transport contract).
		n, dead, err := s.sendExchangeFrame(dest, s.batchBuf)
		if err != nil || dead {
			return err
		}
		wire += n
	}
	s.wireSent.Add(wire)
	if s.dedupBudget > 0 {
		mirror := s.dedupMirror(dest)
		for _, sample := range ship {
			mirror.Note(sample)
		}
		if len(refs) > 0 {
			s.dedupHits.Add(int64(len(refs)))
			// The bytes-saved baseline is the whole batch as one payload frame
			// under the same encoding: the residual as just encoded (its count
			// word included) plus the referenced entries.
			hypo := emptyBatchFrame + refBytes
			if len(ship) > 0 {
				hypo += int64(len(s.batchBuf)) - 4
			}
			if saved := hypo - wire; saved > 0 {
				s.dedupSaved.Add(saved)
			}
		}
	}
	return nil
}

// emptyBatchFrame is the wire size of a payload frame carrying a batch of no
// samples: frame overhead plus the count word.
var emptyBatchFrame = transport.FrameWireSize([]byte(nil)) + 4
