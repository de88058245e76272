package shuffle

import (
	"fmt"
	"sync/atomic"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/store"
	"plshuffle/internal/store/cache"
	"plshuffle/internal/transport"
)

// Scheduler manages the per-epoch global exchange for one worker, mirroring
// the PLS.Scheduler lifecycle the paper adds to PyTorch training scripts
// (Figure 3):
//
//	sched.Scheduling(epoch)      // plan this epoch's exchange, then Open it
//	// training loop; optionally sched.Communicate(chunk) per iteration
//	sched.Communicate(-1)        // post any remaining non-blocking traffic
//	sched.Synchronize()          // wait for the exchange to finish
//	sched.CleanLocalStorage()    // remove sent samples, store received ones
//
// Posting the traffic in per-iteration chunks (Q·b samples per iteration,
// Section III-C / Figure 4) overlaps the exchange with the forward and
// backward phases; Synchronize at the epoch boundary then has little left
// to wait for. The Scheduler plans nothing itself beyond Scheduling's flat
// PLS plan: it executes whatever ExchangePlan Open is given (PlanEpoch's,
// or the post-join rebalance's).
type Scheduler struct {
	comm   *mpi.Comm
	st     *store.Local
	q      float64
	totalN int
	seed   uint64

	plan     ExchangePlan
	tag      int          // user tag of the open window's frames
	posted   int          // slots whose sends have been posted
	expected int          // samples this rank receives this epoch (= Slots())
	pending  *mpi.Request // the single outstanding posted receive, or nil
	received []data.Sample
	state    schedState

	// Reusable scratch, retained across epochs so the steady-state exchange
	// allocates nothing on the send side: destSlots groups a chunk's slot
	// indices by destination, batchShip stages the samples of one outgoing
	// batch, batchBuf holds its encoding, shipScratch/refShip split a batch
	// into shipped samples and dedup references, and sentScratch is the
	// CleanLocalStorage sent-ID set.
	destSlots   [][]int
	batchShip   []data.Sample
	shipScratch []data.Sample
	batchBuf    []byte
	refShip     transport.SampleRefs
	sentScratch map[int]bool

	// The receive side's memory (DESIGN.md §13.2): features is where decoded
	// samples take their feature arrays, and decoded maps each stored sample
	// this Scheduler decoded to its array's first element. CleanLocalStorage
	// recycles a sent sample's array into features only when decoded names
	// that very array, so an array of the caller's dataset, or one another
	// Scheduler decoded, is never rewritten.
	features data.FeatureSource
	decoded  map[int]*float32

	// Wire-lean exchange (DESIGN.md §13). encoding selects the sample batch
	// wire format; dedupBudget > 0 enables the pairwise dedup protocol:
	// sendMirror[r] mirrors (IDs and sizes only) the segment rank r keeps of
	// samples this rank sent it, and recvSegment[r] is this rank's segment
	// (IDs and payloads) of samples received from r. Both sides of a pair
	// apply identical Note/Touch sequences derived from the pairwise FIFO
	// frame stream, so a mirror hit proves the receiver can materialize the
	// sample locally and a compact reference frame replaces the payload.
	encoding    data.Encoding
	dedupBudget int64
	sendMirror  map[int]*cache.SampleLRU
	recvSegment map[int]*cache.SampleLRU

	// Counted quantities, one scrape-safe field each (DESIGN.md §11): the
	// owning goroutine is the only writer, and a telemetry scrape reads the
	// same word from the HTTP goroutine. wireSent/wireRecv are the exact wire
	// sizes (frame overhead included) of exchanged sample frames — self slots
	// send none — on a wire backend, the bytes the TCP transport moves for
	// the exchange. They and the dedup counters are cumulative over the
	// scheduler's life (pls_exchange_* counters never reset); base is their
	// value when the current epoch was scheduled, so the per-epoch accessors
	// are a subtraction, not a second set of counters. epoch is the most
	// recently scheduled epoch.
	epoch      atomic.Int64
	wireSent   atomic.Int64
	wireRecv   atomic.Int64
	dedupHits  atomic.Int64
	dedupSaved atomic.Int64
	base       struct{ wireSent, wireRecv, dedupHits, dedupSaved int64 }

	// Failure policy (DESIGN.md §10): every exchange frame goes out through
	// SendPeerAware and every blocking drain waits in WaitPeerAware, so a peer
	// death always reaches the scheduler as a *transport.PeerError value, and
	// peerFailed is the one place that decides about it. With degrade set the
	// scheduler cancels the dead rank's slots — send slots toward it are
	// retained locally, inbound slots from it are forfeited (capped by what
	// already arrived) — and the epoch completes with a reduced effective
	// exchange fraction: a smaller realized Q is still a valid PLS
	// configuration. Without it (abort, the default) the typed error is
	// returned to the caller.
	degrade  bool
	dead     map[int]bool // ranks this scheduler treats as dead
	recvFrom map[int]int  // samples decoded per source rank this epoch

	// The current epoch's canceled slots — send slots whose samples stay
	// local, inbound slots forfeited to a death — and the exchange fraction
	// they leave (float64 bits). Written together by setDegraded.
	degradedSend atomic.Int64
	degradedRecv atomic.Int64
	effQ         atomic.Uint64
}

type schedState int

const (
	stateIdle schedState = iota
	stateScheduled
	stateSynchronized
)

// NewScheduler creates a scheduler for one worker. totalN is the global
// number of training samples (used to derive the shared slot count); q is
// the exchange fraction.
func NewScheduler(comm *mpi.Comm, st *store.Local, q float64, totalN int, seed uint64) (*Scheduler, error) {
	if comm == nil || st == nil {
		return nil, fmt.Errorf("shuffle: NewScheduler: nil communicator or store")
	}
	if q < 0 || q > 1 {
		return nil, fmt.Errorf("shuffle: NewScheduler: fraction %v out of [0,1]", q)
	}
	if totalN <= 0 {
		return nil, fmt.Errorf("shuffle: NewScheduler: totalN must be positive, got %d", totalN)
	}
	s := &Scheduler{comm: comm, st: st, q: q, totalN: totalN, seed: seed}
	s.setDegraded(0, 0)
	return s, nil
}

// SetSampleEncoding selects the wire encoding of exchanged sample batches
// (data.EncodingFP32, the default, is the legacy format). Call it before
// the first Scheduling; every rank must configure the same encoding.
func (s *Scheduler) SetSampleEncoding(enc data.Encoding) error {
	if s.state != stateIdle {
		return fmt.Errorf("shuffle: SetSampleEncoding: cannot reconfigure mid-epoch")
	}
	s.encoding = enc
	return nil
}

// SetQ retunes the exchange fraction for the NEXT epoch (the closed-loop
// controller of DESIGN.md §16, or a fixed per-epoch schedule). It is legal
// only between epochs — after Reset or CleanLocalStorage, before the next
// Scheduling — because a mid-epoch change would desynchronize the
// shared-seed plan the ranks already agreed on. Every rank must apply the
// same Q before the same Scheduling; the controller's broadcast protocol
// guarantees that.
func (s *Scheduler) SetQ(q float64) error {
	if s.state != stateIdle {
		return fmt.Errorf("shuffle: SetQ: cannot retune mid-epoch")
	}
	if q < 0 || q > 1 {
		return fmt.Errorf("shuffle: SetQ: fraction %v out of [0,1]", q)
	}
	s.q = q
	s.setDegraded(s.DegradedSlots()) // same slots, re-scaled: EffectiveQ follows q
	return nil
}

// Q returns the exchange fraction the next epoch plans with.
func (s *Scheduler) Q() float64 { return s.q }

// Scheduling plans the epoch's flat PLS exchange from the worker's current
// local sample set at the scheduler's Q and opens it. It must be called
// once per epoch before Communicate.
func (s *Scheduler) Scheduling(epoch int) error {
	plan, err := PlanExchange(s.comm.Rank(), s.comm.Size(), s.st.IDs(), s.q, s.totalN, s.seed, epoch)
	if err != nil {
		return err
	}
	return s.Open(plan, ExchangeTag(epoch))
}

// Open starts a transaction window: plan's samples go out, one sample per
// plan.Senders entry comes in, all on tag; Synchronize and CleanLocalStorage
// (or Reset) close it. It is the one door samples move through — Scheduling
// opens the flat PLS plan, the trainer PlanEpoch's exchange, Rebalance a
// plan of its own — and it refuses while the previous window is open, so an
// epoch synchronized but not cleaned is never silently overwritten.
func (s *Scheduler) Open(plan ExchangePlan, tag int) error {
	if s.state != stateIdle {
		return fmt.Errorf("shuffle: opening epoch %d: epoch %d's window is still open (CleanLocalStorage or Reset closes it)", plan.Epoch, s.ObservedEpoch())
	}
	s.epoch.Store(int64(plan.Epoch))
	s.tag = tag
	s.plan = plan
	s.posted = 0
	s.expected = len(plan.Senders)
	s.pending = nil
	s.received = s.received[:0] // capacity reused across epochs
	s.base.wireSent, s.base.wireRecv = s.CumulativeWireTraffic()
	s.base.dedupHits, s.base.dedupSaved = s.CumulativeDedup()
	clear(s.recvFrom)
	s.state = stateScheduled
	s.setDegraded(0, 0)
	if len(s.dead) > 0 {
		// Deaths absorbed in earlier epochs persist: rebuild this window's
		// expectation around them before any traffic flows.
		s.recomputeExpectation()
	}
	return nil
}

// Slots returns the number of samples this epoch's plan exchanges.
func (s *Scheduler) Slots() int { return s.plan.Slots() }

// Communicate posts non-blocking sends for up to n slots (n < 0 posts
// everything remaining) and returns the number of inbound samples still in
// flight toward this rank. Calling it repeatedly with small n from the
// training loop implements the Figure 4 overlap; a single Communicate(-1)
// matches the plain non-blocking exchange of Figure 3.
//
// Slots sharing a destination within one Communicate call are coalesced
// into a single multi-sample frame (data.AppendSampleBatch), so a bulk
// Communicate(-1) posts at most M-1 frames instead of Q·N/M, and a chunked
// call posts at most min(n, M-1): slots aimed at this rank itself send
// nothing. Inbound traffic is likewise batched:
// Communicate opportunistically drains any frames that have already
// arrived (without blocking), so decode work overlaps compute too.
func (s *Scheduler) Communicate(n int) (int, error) {
	if s.state != stateScheduled {
		return 0, fmt.Errorf("shuffle: Communicate called without a scheduled epoch")
	}
	// Deaths the transport detected since the last call are decided first, so
	// the send loop below never aims at a known-dead rank.
	if err := s.notePeerFailures(); err != nil {
		return 0, err
	}
	end := s.plan.Slots()
	if n >= 0 && s.posted+n < end {
		end = s.posted + n
	}
	if end > s.posted {
		if len(s.destSlots) != s.comm.Size() {
			s.destSlots = make([][]int, s.comm.Size())
		}
		for i := s.posted; i < end; i++ {
			d := s.plan.Dests[i]
			if s.dead[d] {
				continue // canceled slot: CleanLocalStorage retains the sample
			}
			s.destSlots[d] = append(s.destSlots[d], i)
		}
		for dest, slots := range s.destSlots {
			if len(slots) == 0 {
				continue
			}
			s.batchShip = s.batchShip[:0]
			for _, slot := range slots {
				sample, err := s.st.Get(s.plan.SendIDs[slot])
				if err != nil {
					return 0, fmt.Errorf("shuffle: Communicate: slot %d: %w", slot, err)
				}
				s.batchShip = append(s.batchShip, sample)
			}
			if dest == s.comm.Rank() {
				// A self slot is satisfied by the stored sample itself: no
				// frame, no codec, and CleanLocalStorage leaves it in place.
				s.received = append(s.received, s.batchShip...)
			} else if err := s.shipBatch(dest); err != nil {
				return 0, err
			}
			s.destSlots[dest] = slots[:0]
		}
		s.posted = end
	}
	if err := s.drainReceives(false); err != nil {
		return 0, err
	}
	return s.expected - len(s.received), nil
}

// sendExchangeFrame posts one frame of the current epoch's exchange toward
// dest and returns its wire size. A destination that died under the send is
// handed to peerFailed; when that absorbs it, dead=true tells the caller to
// skip the rest of this destination's work — the batch's samples are retained
// (the receiver is gone, so the local copies are the only ones among
// survivors) and the pair's dedup state is moot (InvalidateDedup clears it
// during recovery anyway).
func (s *Scheduler) sendExchangeFrame(dest int, payload any) (wire int64, dead bool, err error) {
	n, pe := s.comm.SendPeerAware(dest, s.tag, payload)
	if pe != nil {
		return 0, true, s.peerFailed(pe)
	}
	return n, false, nil
}

// drainReceives consumes inbound exchange frames until the epoch's expected
// sample count is met (block=true) or no further frame has arrived yet
// (block=false). Termination is count-based: the balanced plan guarantees
// this rank receives exactly expected samples, every frame carries at least
// one, and at most one receive is posted at a time — so no posted receive
// can dangle into the next epoch's tag space.
func (s *Scheduler) drainReceives(block bool) error {
	for len(s.received) < s.expected {
		if s.pending == nil {
			s.pending = s.comm.Irecv(mpi.AnySource, s.tag)
		}
		var payload any
		var st mpi.Status
		if block {
			// The peer-aware wait: a death the scheduler has not decided about
			// yet surfaces as a value (the receive is withdrawn) instead of
			// blocking forever on a sender that will never speak again. Under
			// degrade the plan shrinks around it and the drain continues toward
			// the reduced expectation; under abort the error is returned.
			p, pst, err := s.comm.WaitPeerAware(s.pending, func(r int) bool { return s.dead[r] })
			if err != nil {
				s.pending = nil
				pe, ok := transport.AsPeerError(err)
				if !ok {
					return err
				}
				if err := s.peerFailed(pe); err != nil {
					return err
				}
				continue
			}
			payload, st = p, pst
		} else {
			ok, p, pst := s.pending.Test()
			if !ok {
				return nil
			}
			payload, st = p, pst
		}
		s.pending = nil
		if err := s.ingestFrame(payload, st); err != nil {
			return err
		}
	}
	return nil
}

// ingestFrame decodes one exchange frame into the received set and updates
// the per-source accounting the degradation path depends on. Two frame
// shapes exist: a sample batch ([]byte) carrying payloads, decoded into
// feature arrays from s.features and then handed back to the transport's
// pool (the Scheduler owns a payload delivered on its tag), and a dedup
// reference frame (transport.SampleRefs) whose samples this rank
// materializes from the per-source segment it has been maintaining — a ref
// naming a sample absent from the segment is a protocol error, never a
// silent drop, because both sides compute the segment deterministically.
func (s *Scheduler) ingestFrame(payload any, st mpi.Status) error {
	if st.Source == s.comm.Rank() {
		return fmt.Errorf("shuffle: a self-send carried an exchange frame, but self slots send none")
	}
	before := len(s.received)
	switch buf := payload.(type) {
	case []byte:
		var err error
		s.received, err = s.features.DecodeSampleBatchInto(s.received, buf)
		transport.PutBytes(buf)
		if err != nil {
			return fmt.Errorf("shuffle: decoding received sample batch: %w", err)
		}
		if s.dedupBudget > 0 {
			seg := s.dedupSegment(st.Source)
			for _, sample := range s.received[before:] {
				seg.Note(sample)
			}
		}
	case transport.SampleRefs:
		if s.dedupBudget <= 0 {
			return fmt.Errorf("shuffle: rank %d sent a dedup reference frame but dedup is disabled here", st.Source)
		}
		seg := s.dedupSegment(st.Source)
		for _, id := range buf {
			if !seg.Touch(id) {
				return fmt.Errorf("shuffle: rank %d referenced sample %d absent from its segment (dedup state diverged)", st.Source, id)
			}
			sample, _ := seg.Get(id)
			s.received = append(s.received, sample)
		}
	default:
		return fmt.Errorf("shuffle: exchange frame carries %T, want []byte or transport.SampleRefs", payload)
	}
	n := len(s.received) - before
	if n == 0 {
		return fmt.Errorf("shuffle: peer sent an empty sample batch")
	}
	if s.recvFrom == nil {
		s.recvFrom = make(map[int]int)
	}
	s.recvFrom[st.Source] += n
	s.wireRecv.Add(st.Wire)
	if s.dead[st.Source] {
		// A dead sender's straggler landed after its slots were forfeited:
		// accept the samples and restore the expectation they satisfy.
		s.recomputeExpectation()
	}
	if len(s.received) > s.expected {
		return fmt.Errorf("shuffle: received %d samples, plan expects %d", len(s.received), s.expected)
	}
	return nil
}

// Synchronize posts any remaining traffic and waits until every expected
// sample has arrived and been decoded (line 7 of Algorithm 1).
func (s *Scheduler) Synchronize() error {
	if s.state != stateScheduled {
		return fmt.Errorf("shuffle: Synchronize called without a scheduled epoch")
	}
	if _, err := s.Communicate(-1); err != nil {
		return err
	}
	if err := s.drainReceives(true); err != nil {
		return err
	}
	// A degraded epoch can meet its (reduced) expectation while a receive
	// is still posted; withdraw it so it cannot dangle into later epochs.
	if s.pending != nil {
		if !s.comm.CancelRecv(s.pending) {
			// A frame matched concurrently; the completed message wins.
			payload, st := s.pending.Wait()
			if err := s.ingestFrame(payload, st); err != nil {
				return err
			}
		}
		s.pending = nil
	}
	s.state = stateSynchronized
	return nil
}

// Reset abandons the current epoch after a failed exchange, returning the
// scheduler to the idle state so a later Scheduling can start fresh. The
// outstanding receive (if any) is withdrawn and this epoch's received
// samples are discarded. The local store is untouched — no sample has been
// deleted, because CleanLocalStorage only runs after a successful
// Synchronize — so the abandoned epoch loses no local data. Frames already
// delivered for the abandoned epoch rot harmlessly in the mailbox: epoch
// tags are never reused.
func (s *Scheduler) Reset() {
	if s.pending != nil {
		if !s.comm.CancelRecv(s.pending) {
			s.pending.Wait() // matched concurrently: consume and discard
		}
		s.pending = nil
	}
	s.received = s.received[:0]
	clear(s.recvFrom)
	s.posted = 0
	s.expected = 0
	s.setDegraded(0, 0)
	// An abandoned epoch may have updated some pair caches but not others;
	// drop all dedup state on both sides' next contact rather than risk a
	// silent mirror/segment divergence.
	s.InvalidateDedup()
	s.state = stateIdle
}

// Received returns the samples obtained in the last synchronized exchange
// (valid between Synchronize and CleanLocalStorage).
func (s *Scheduler) Received() []data.Sample { return s.received }

// WireTraffic returns the exact wire volume of the current epoch's exchange
// (sent and received sample frames, headers included; self slots send none):
// CumulativeWireTraffic's growth since Scheduling. Read it after Synchronize.
func (s *Scheduler) WireTraffic() (sent, recv int64) {
	sent, recv = s.CumulativeWireTraffic()
	return sent - s.base.wireSent, recv - s.base.wireRecv
}

// CumulativeWireTraffic returns the total exchange wire volume across ALL
// epochs so far (same accounting as WireTraffic, never reset). Safe from any
// goroutine — it backs the pls_exchange_wire_bytes_total telemetry counters.
func (s *Scheduler) CumulativeWireTraffic() (sent, recv int64) {
	return s.wireSent.Load(), s.wireRecv.Load()
}

// ObservedEpoch returns the most recently scheduled epoch, from any
// goroutine.
func (s *Scheduler) ObservedEpoch() int { return int(s.epoch.Load()) }

// CleanLocalStorage applies the exchange to the local store: received
// samples are saved and transmitted samples removed. Receives are applied
// before deletes — that ordering is what makes the worker's peak storage
// (1+Q)·N/M rather than N/M (Section III-A), and the store's Peak()
// measures it. Self slots (a slot whose shared permutation maps this rank
// to itself) cancel out and leave the sample in place. A removed sample's
// feature array goes back to the decoders when nothing else can read it
// (recycle).
func (s *Scheduler) CleanLocalStorage() error {
	if s.state != stateSynchronized {
		return fmt.Errorf("shuffle: CleanLocalStorage called before Synchronize")
	}
	// Deleting a sent sample is the irreversible step of the exchange: once a
	// death is known, samples shipped to the dead rank must be retained (the
	// receiver died holding the only other copy). Every death the transport
	// has reported up to this moment is decided first, so the retention
	// decision below uses the freshest knowledge (and the abort policy stops
	// before anything is deleted). A death detected only after this commit
	// point loses the samples the dead rank had already received — exactly the
	// semantics of a node dying with its share of the data.
	if err := s.notePeerFailures(); err != nil {
		return err
	}
	if s.sentScratch == nil {
		s.sentScratch = make(map[int]bool, len(s.plan.SendIDs))
	} else {
		clear(s.sentScratch)
	}
	sent := s.sentScratch
	for i, id := range s.plan.SendIDs {
		if s.dead[s.plan.Dests[i]] {
			// Canceled slot: whether or not the sample was already shipped
			// before the destination died, the receiver is gone — the local
			// copy is the only one among the survivors, so retain it. This
			// is the no-sample-lost half of the degradation invariant; the
			// no-duplicate half holds because the dead rank is not a
			// survivor.
			continue
		}
		sent[id] = true
	}
	for _, sample := range s.received {
		if sent[sample.ID] && s.st.Has(sample.ID) {
			// Self-send: the sample never left; cancel the delete.
			delete(sent, sample.ID)
			continue
		}
		if err := s.st.Put(sample); err != nil {
			return fmt.Errorf("shuffle: CleanLocalStorage: storing received sample %d: %w", sample.ID, err)
		}
		if len(sample.Features) > 0 {
			if s.decoded == nil {
				s.decoded = make(map[int]*float32)
			}
			s.decoded[sample.ID] = &sample.Features[0]
		}
	}
	for id := range sent {
		sample, _ := s.st.Get(id) // an absent sample fails the Delete
		if err := s.st.Delete(id); err != nil {
			return fmt.Errorf("shuffle: CleanLocalStorage: removing sent sample %d: %w", id, err)
		}
		s.recycle(sample)
	}
	s.state = stateIdle
	return nil
}

// recycle hands the feature array of a sample the store has just let go to
// the decoders, when nothing can read it any more: this Scheduler decoded
// it (an array of the caller's dataset never qualifies) and no dedup
// segment still holds it. The next epoch's decode overwrites it.
func (s *Scheduler) recycle(sample data.Sample) {
	f := sample.Features
	if len(f) == 0 || s.decoded[sample.ID] != &f[0] {
		return
	}
	delete(s.decoded, sample.ID)
	for _, seg := range s.recvSegment {
		if seg.Has(int64(sample.ID)) {
			return
		}
	}
	s.features.Recycle(f)
}

// RunEpochExchange is the convenience bundle Scheduling → Communicate(-1)
// → Synchronize → CleanLocalStorage for callers that do not overlap.
func (s *Scheduler) RunEpochExchange(epoch int) error {
	if err := s.Scheduling(epoch); err != nil {
		return err
	}
	if err := s.Synchronize(); err != nil {
		return err
	}
	return s.CleanLocalStorage()
}
