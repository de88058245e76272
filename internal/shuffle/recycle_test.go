package shuffle

// The receive side's memory (DESIGN.md §13.2): a self slot is satisfied by
// the stored sample, and a sent sample's feature array is rewritten by a
// later decode only once the store and every dedup segment have let it go.

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
)

// bitsOf renders features bit for bit, for exact comparison.
func bitsOf(fs []float32) string {
	b := make([]byte, 0, 9*len(fs))
	for _, f := range fs {
		b = fmt.Appendf(b, "%08x.", math.Float32bits(f))
	}
	return string(b)
}

// TestRecycledFeaturesStayPrivate runs the exchange for several epochs —
// plain, and with dedup under a budget that keeps every received sample and
// under one that evicts — and checks after every epoch that recycling is
// real and invisible: every stored sample and every segment entry still
// carries its own features bit for bit, no array holds two live samples,
// and the caller's dataset is untouched; yet received samples do land in
// arrays that earlier epochs' sent samples gave back (unless the segments
// keep everything).
func TestRecycledFeaturesStayPrivate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		enc    data.Encoding
		budget int64
		reuse  bool // whether arrays must be seen reused
	}{
		{"fp32", data.EncodingFP32, 0, true},
		{"fp16exact-dedup-keeping", data.EncodingFP16Exact, 1 << 20, false},
		{"fp16exact-dedup-evicting", data.EncodingFP16Exact, 600, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, m, epochs, seed = 96, 4, 8, 23
			stores, ds := mkStores(t, n, m, seed, 0)
			want := make([]string, n)
			for _, s := range ds.Train {
				want[s.ID] = bitsOf(s.Features)
			}
			var reused atomic.Int64
			err := mpi.Run(m, func(c *mpi.Comm) error {
				st := stores[c.Rank()]
				sched, err := NewScheduler(c, st, 0.5, n, seed, Options{Encoding: tc.enc, DedupBudget: tc.budget})
				if err != nil {
					return err
				}
				held := make(map[*float32]int) // an array → the sample last seen in it
				for e := 0; e < epochs; e++ {
					if err := sched.RunEpochExchange(e); err != nil {
						return err
					}
					live := make(map[*float32]int)
					check := func(where string, s data.Sample) error {
						if bitsOf(s.Features) != want[s.ID] {
							return fmt.Errorf("rank %d epoch %d: %s sample %d carries another sample's features", c.Rank(), e, where, s.ID)
						}
						p := &s.Features[0]
						if id, ok := live[p]; ok && id != s.ID {
							return fmt.Errorf("rank %d epoch %d: samples %d and %d share one array", c.Rank(), e, id, s.ID)
						}
						live[p] = s.ID
						if id, ok := held[p]; ok && id != s.ID {
							reused.Add(1)
						}
						held[p] = s.ID
						return nil
					}
					for _, s := range st.Samples() {
						if err := check("stored", s); err != nil {
							return err
						}
					}
					for _, seg := range sched.recvSegment {
						for id := range n {
							if s, ok := seg.Get(int64(id)); ok {
								if err := check("segment", s); err != nil {
									return err
								}
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range ds.Train {
				if bitsOf(s.Features) != want[s.ID] {
					t.Fatalf("the exchange wrote the caller's dataset: sample %d changed", s.ID)
				}
			}
			if tc.reuse && reused.Load() == 0 {
				t.Fatal("no received sample landed in a recycled array")
			}
			t.Logf("%d arrays seen holding a new sample after recycling", reused.Load())
		})
	}
}

// TestSelfSlotsSendNoFrame: a slot whose destination is this rank puts no
// frame on the transport and runs no codec — the received sample is the
// stored one, array and all — and the epoch still ends with that sample in
// place.
func TestSelfSlotsSendNoFrame(t *testing.T) {
	const n, m, seed, epoch = 96, 4, 5, 3
	stores, _ := mkStores(t, n, m, seed, 0)
	var selfSlots atomic.Int64
	err := mpi.Run(m, func(c *mpi.Comm) error {
		st := stores[c.Rank()]
		sched, err := NewScheduler(c, st, 1, n, seed)
		if err != nil {
			return err
		}
		plan, err := PlanExchange(c.Rank(), m, st.IDs(), 1, n, seed, epoch)
		if err != nil {
			return err
		}
		dests := make(map[int]bool)
		self := make(map[int]*float32)
		for i, d := range plan.Dests {
			if d != c.Rank() {
				dests[d] = true
				continue
			}
			s, err := st.Get(plan.SendIDs[i])
			if err != nil {
				return err
			}
			self[s.ID] = &s.Features[0]
		}
		selfSlots.Add(int64(len(self)))
		before := c.Transport().Stats().FramesSent
		if err := sched.Scheduling(epoch); err != nil {
			return err
		}
		if err := sched.Synchronize(); err != nil {
			return err
		}
		if frames := c.Transport().Stats().FramesSent - before; frames != int64(len(dests)) {
			return fmt.Errorf("rank %d sent %d frames for %d destinations other than itself", c.Rank(), frames, len(dests))
		}
		for _, s := range sched.Received() {
			if p, ok := self[s.ID]; ok && p != &s.Features[0] {
				return fmt.Errorf("rank %d: self slot %d arrived in a new array", c.Rank(), s.ID)
			}
		}
		if err := sched.CleanLocalStorage(); err != nil {
			return err
		}
		for id, p := range self {
			s, err := st.Get(id)
			if err != nil {
				return fmt.Errorf("rank %d lost self-slot sample %d: %w", c.Rank(), id, err)
			}
			if &s.Features[0] != p {
				return fmt.Errorf("rank %d: self-slot sample %d was replaced", c.Rank(), id)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if selfSlots.Load() == 0 {
		t.Fatal("the plan had no self slot; the test is vacuous")
	}
}
