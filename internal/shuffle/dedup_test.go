package shuffle

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/store"
	"plshuffle/internal/transport"
)

// dedupRunStats aggregates one rank's counters across a whole run.
type dedupRunStats struct {
	sent, recv int64
	hits       int
	saved      int64
}

// runEpochsDedup runs the exchange like runEpochs but lets the caller
// configure each scheduler (encoding, dedup budget) and returns per-rank
// wire/dedup totals.
func runEpochsDedup(t *testing.T, stores []*store.Local, n int, q float64, seed uint64,
	epochs, chunk int, enc data.Encoding, dedupBudget int64) []dedupRunStats {
	t.Helper()
	m := len(stores)
	out := make([]dedupRunStats, m)
	err := mpi.Run(m, func(c *mpi.Comm) error {
		sched, err := NewScheduler(c, stores[c.Rank()], q, n, seed, Options{Encoding: enc, DedupBudget: dedupBudget})
		if err != nil {
			return err
		}
		for e := 0; e < epochs; e++ {
			if err := sched.Scheduling(e); err != nil {
				return err
			}
			if chunk > 0 {
				for posted := 0; posted < sched.Slots(); posted += chunk {
					if _, err := sched.Communicate(chunk); err != nil {
						return err
					}
				}
			}
			if err := sched.Synchronize(); err != nil {
				return err
			}
			if err := sched.CleanLocalStorage(); err != nil {
				return err
			}
		}
		sent, recv := sched.CumulativeWireTraffic()
		hits, saved := sched.CumulativeDedup()
		out[c.Rank()] = dedupRunStats{sent: sent, recv: recv, hits: int(hits), saved: saved}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// storeBits captures a store's full contents, feature bits included, for
// bitwise comparison between runs.
func storeBits(t *testing.T, st *store.Local) map[int]string {
	t.Helper()
	out := make(map[int]string, st.Len())
	for _, id := range st.IDs() {
		s, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "label=%d bytes=%d feats=", s.Label, s.Bytes)
		for _, f := range s.Features {
			fmt.Fprintf(&b, "%08x.", math.Float32bits(f))
		}
		out[id] = b.String()
	}
	return out
}

func requireSameStores(t *testing.T, a, b []*store.Local, what string) {
	t.Helper()
	for r := range a {
		ba, bb := storeBits(t, a[r]), storeBits(t, b[r])
		if len(ba) != len(bb) {
			t.Fatalf("%s: rank %d store sizes differ: %d vs %d", what, r, len(ba), len(bb))
		}
		for id, va := range ba {
			if vb, ok := bb[id]; !ok || va != vb {
				t.Fatalf("%s: rank %d sample %d differs bitwise", what, r, id)
			}
		}
	}
}

// TestDedupMultiEpochEquivalence is the tentpole correctness property: with
// deduplication enabled the training input is BITWISE identical to the
// dedup-off run — same samples, same placement, same feature bits — while
// the wire carries strictly fewer bytes and the hit counters prove refs
// actually replaced payloads. Two ranks force every non-self send onto the
// single opposite edge, so samples ping-pong and re-sends hit the mirror.
func TestDedupMultiEpochEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    int
		q    float64
		enc  data.Encoding
	}{
		{"m2-fp32", 2, 1.0, data.EncodingFP32},
		{"m2-fp16exact", 2, 1.0, data.EncodingFP16Exact},
		{"m4-fp32", 4, 0.5, data.EncodingFP32},
		{"m4-fp16exact", 4, 0.5, data.EncodingFP16Exact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, epochs, seed = 64, 8, 17
			base, _ := mkStores(t, n, tc.m, seed, 0)
			lean, _ := mkStores(t, n, tc.m, seed, 0)
			baseStats := runEpochsDedup(t, base, n, tc.q, seed, epochs, 0, tc.enc, 0)
			leanStats := runEpochsDedup(t, lean, n, tc.q, seed, epochs, 0, tc.enc, 1<<20)
			requireSameStores(t, base, lean, tc.name)
			var hits int
			for r := range leanStats {
				hits += leanStats[r].hits
				if leanStats[r].saved < 0 {
					t.Fatalf("rank %d negative savings %d", r, leanStats[r].saved)
				}
				if leanStats[r].hits > 0 && leanStats[r].sent >= baseStats[r].sent {
					t.Fatalf("rank %d dedup hit %d refs but sent %d >= baseline %d bytes",
						r, leanStats[r].hits, leanStats[r].sent, baseStats[r].sent)
				}
			}
			if hits == 0 {
				t.Fatalf("no dedup hits across %d epochs — protocol never engaged", epochs)
			}
			var baseWire, leanWire int64
			for r := range baseStats {
				baseWire += baseStats[r].sent
				leanWire += leanStats[r].sent
			}
			t.Logf("%s: wire %d → %d bytes (%.2fx), %d ref hits",
				tc.name, baseWire, leanWire, float64(baseWire)/float64(leanWire), hits)
		})
	}
}

// TestDedupChunkedMatchesBulk: the dedup protocol is insensitive to how
// Communicate is chunked — the per-pair frame order (refs before payloads,
// batches in slot order) is what both caches replay, and chunking preserves
// it.
func TestDedupChunkedMatchesBulk(t *testing.T) {
	const n, m, epochs, seed = 96, 4, 4, 13
	bulk, _ := mkStores(t, n, m, seed, 0)
	chunked, _ := mkStores(t, n, m, seed, 0)
	runEpochsDedup(t, bulk, n, 0.5, seed, epochs, 0, data.EncodingFP16Exact, 1<<20)
	runEpochsDedup(t, chunked, n, 0.5, seed, epochs, 3, data.EncodingFP16Exact, 1<<20)
	requireSameStores(t, bulk, chunked, "bulk-vs-chunked")
}

// TestDedupTinyBudgetStillExact: a budget far too small to hold a pair's
// working set produces few or no hits but must never corrupt the exchange —
// mirror and segment evict in lockstep, so a miss is always safe.
func TestDedupTinyBudgetStillExact(t *testing.T) {
	const n, m, epochs, seed = 64, 2, 6, 29
	base, _ := mkStores(t, n, m, seed, 0)
	lean, _ := mkStores(t, n, m, seed, 0)
	runEpochsDedup(t, base, n, 1.0, seed, epochs, 0, data.EncodingFP32, 0)
	runEpochsDedup(t, lean, n, 1.0, seed, epochs, 0, data.EncodingFP32, 100) // ~2 samples
	requireSameStores(t, base, lean, "tiny-budget")
}

// TestDedupSegmentSharesStore: a received sample is one feature array held
// by both the store and the dedup segment — no copy — and a trainer reading
// both while the next epoch's exchange runs on every rank is race-free
// (CI runs this under -race): nothing writes a decoded sample's features.
func TestDedupSegmentSharesStore(t *testing.T) {
	const n, m, epochs, seed = 96, 4, 6, 31
	stores, _ := mkStores(t, n, m, seed, 0)
	var shared atomic.Int64
	err := mpi.Run(m, func(c *mpi.Comm) error {
		st := stores[c.Rank()]
		sched, err := NewScheduler(c, st, 0.5, n, seed, Options{Encoding: data.EncodingFP16Exact, DedupBudget: 1 << 20})
		if err != nil {
			return err
		}
		for e := 0; e < epochs; e++ {
			var views [][]float32
			for _, s := range st.Samples() {
				views = append(views, s.Features)
				for _, seg := range sched.recvSegment {
					got, ok := seg.Get(int64(s.ID))
					if !ok {
						continue
					}
					for j := range s.Features {
						if math.Float32bits(got.Features[j]) != math.Float32bits(s.Features[j]) {
							return fmt.Errorf("rank %d sample %d: segment and store differ at feature %d", c.Rank(), s.ID, j)
						}
					}
					if &got.Features[0] == &s.Features[0] {
						shared.Add(1)
					}
					views = append(views, got.Features)
				}
			}
			read := make(chan float32, 1)
			go func() {
				var sum float32
				for _, v := range views {
					for _, f := range v {
						sum += f
					}
				}
				read <- sum
			}()
			if err := sched.Scheduling(e); err != nil {
				return err
			}
			for posted := 0; posted < sched.Slots(); posted += 2 {
				if _, err := sched.Communicate(2); err != nil {
					return err
				}
			}
			err := sched.Synchronize()
			<-read
			if err != nil {
				return err
			}
			if err := sched.CleanLocalStorage(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Load() == 0 {
		t.Fatal("no stored sample shares its feature array with a dedup segment")
	}
}

// TestDedupIngestRejections drives the receive-side protocol errors: a ref
// frame arriving with dedup disabled, and a ref naming a sample the
// per-source segment does not hold.
func TestDedupIngestRejections(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		st := store.NewLocal(0)
		sched, err := NewScheduler(c, st, 0.5, 16, 1)
		if err != nil {
			return err
		}
		refs := transport.SampleRefs{42}
		if err := sched.ingestFrame(refs, mpi.Status{Source: 1}); err == nil ||
			!strings.Contains(err.Error(), "dedup is disabled") {
			return fmt.Errorf("disabled-dedup ref frame: got %v", err)
		}
		if sched, err = NewScheduler(c, st, 0.5, 16, 1, Options{DedupBudget: 1 << 20}); err != nil {
			return err
		}
		if err := sched.ingestFrame(refs, mpi.Status{Source: 1}); err == nil ||
			!strings.Contains(err.Error(), "absent from its segment") {
			return fmt.Errorf("unknown ref: got %v", err)
		}
		if err := sched.ingestFrame(3.14, mpi.Status{Source: 1}); err == nil ||
			!strings.Contains(err.Error(), "want []byte or transport.SampleRefs") {
			return fmt.Errorf("bad payload type: got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetWireDedupLifecycle pins the idle-only configuration guard and the
// invalidation hook.
func TestSetWireDedupLifecycle(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		st := store.NewLocal(0)
		for i := 0; i < 4; i++ {
			if err := st.Put(data.Sample{ID: i, Features: []float32{1}}); err != nil {
				return err
			}
		}
		sched, err := NewScheduler(c, st, 0.5, 4, 1)
		if err != nil {
			return err
		}
		if err := sched.SetWireDedup(1 << 20); err != nil {
			return err
		}
		if err := sched.Scheduling(0); err != nil {
			return err
		}
		if err := sched.SetWireDedup(0); err == nil {
			return fmt.Errorf("SetWireDedup accepted mid-epoch reconfiguration")
		}
		if err := sched.SetSampleEncoding(data.EncodingFP16Exact); err == nil {
			return fmt.Errorf("SetSampleEncoding accepted mid-epoch reconfiguration")
		}
		sched.Reset()
		if err := sched.SetWireDedup(0); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEpochDeltasSumToCumulative pins the one-home contract of the wire and
// dedup counters (DESIGN.md §11): WireTraffic and DedupStats are the
// cumulative counters' growth since Scheduling, so a reader that takes them
// once per scheduled epoch — completed or abandoned — sums to exactly what
// /metrics serves, across a Reset and a change of the plans' Q, and the
// abandoned epoch's partial traffic is still readable after the Reset.
func TestEpochDeltasSumToCumulative(t *testing.T) {
	const n, m, seed, abandoned, epochs = 64, 2, 17, 3, 6
	stores, _ := mkStores(t, n, m, seed, 0)
	var worldHits int64
	err := mpi.Run(m, func(c *mpi.Comm) error {
		sched, err := NewScheduler(c, stores[c.Rank()], 1.0, n, seed, Options{DedupBudget: 1 << 20})
		if err != nil {
			return err
		}
		var sum dedupRunStats
		take := func(e int) error {
			s, r := sched.WireTraffic()
			h, saved := sched.DedupStats()
			if s <= 0 {
				return fmt.Errorf("rank %d epoch %d: no exchange traffic sent", c.Rank(), e)
			}
			sum.sent, sum.recv, sum.hits, sum.saved = sum.sent+s, sum.recv+r, sum.hits+h, sum.saved+saved
			return nil
		}
		for e := 0; e < epochs; e++ {
			q := 1.0
			if e > abandoned {
				q = 0.5
			}
			plan, err := PlanExchange(c.Rank(), m, stores[c.Rank()].IDs(), q, n, seed, e)
			if err != nil {
				return err
			}
			if err := sched.Open(plan, ExchangeTag(e)); err != nil {
				return err
			}
			if e == abandoned {
				// Both ranks put the epoch on the wire, then abandon it.
				if _, err := sched.Communicate(-1); err != nil {
					return err
				}
				sched.Reset()
				if err := take(e); err != nil {
					return err
				}
				continue
			}
			if err := sched.Synchronize(); err != nil {
				return err
			}
			if err := take(e); err != nil {
				return err
			}
			if err := sched.CleanLocalStorage(); err != nil {
				return err
			}
		}
		sent, recv := sched.CumulativeWireTraffic()
		hits, saved := sched.CumulativeDedup()
		if want := (dedupRunStats{sent: sent, recv: recv, hits: int(hits), saved: saved}); sum != want {
			return fmt.Errorf("rank %d: per-epoch deltas sum to %+v, cumulative counters read %+v", c.Rank(), sum, want)
		}
		if c.Rank() == 0 {
			worldHits = hits
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if worldHits == 0 {
		t.Fatal("no dedup hit in the run; the dedup half of the check is vacuous")
	}
}
