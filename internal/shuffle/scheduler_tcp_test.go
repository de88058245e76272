package shuffle_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

// TestExchangeWireLeanAcceptanceTCP is the PR's acceptance gate for the
// wire-lean exchange: a 4-rank Q=0.25 exchange over real TCP sockets, run
// once with the stock wire (fp32, no dedup, no compression) and once with
// the full lean stack (fp16exact encoding, pairwise dedup, wirecomp
// compression). Three properties are machine-checked:
//
//  1. Exactness — per rank, the scheduler's wire accounting equals the
//     transport's per-kind socket byte counters (data+dataz+dataref) bit
//     for bit, in both directions, in every run — including a third run
//     with the lean stack under a fault injector that injects nothing: a
//     wrapper between mpi and the socket must not turn the compressed
//     sizes Send reports back into estimates.
//  2. Equivalence — every rank's final store is bitwise identical between
//     the two runs: the lean wire changes not a single sample bit. A fourth
//     run builds the lean world through the SetSampleEncoding and
//     SetWireDedup setters instead of Options, and must book the same wire
//     bytes and dedup hits and end with the same stores.
//  3. The win — the lean run moves at most half the exchange bytes of the
//     baseline (the ISSUE's ≥2× bar).
func TestExchangeWireLeanAcceptanceTCP(t *testing.T) {
	const (
		m       = 4
		perRank = 32
		n       = m * perRank
		q       = 0.25
		epochs  = 8
		featDim = 128
		seed    = uint64(23)
	)
	type rankOut struct {
		wire        int64 // exchange bytes sent+recv per the scheduler
		dedupHits   int64
		fingerprint string // canonical dump of the final store, bits included
	}

	// Feature values are small integers: exactly representable in fp16, so
	// the fp16exact encoder quantizes every sample and the decode is still
	// bit-identical to the fp32 original.
	mkSample := func(id int) data.Sample {
		feats := make([]float32, featDim)
		for j := range feats {
			feats[j] = float32((id*7 + j) % 23)
		}
		return data.Sample{ID: id, Label: id % 10, Features: feats, Bytes: 1000}
	}
	fingerprint := func(st *store.Local) string {
		ids := st.IDs()
		var b []byte
		for _, id := range ids {
			s, err := st.Get(id)
			if err != nil {
				return fmt.Sprintf("get %d: %v", id, err)
			}
			b = append(b, fmt.Sprintf("%d/%d/%d:", s.ID, s.Label, s.Bytes)...)
			for _, f := range s.Features {
				b = append(b, fmt.Sprintf("%08x,", math.Float32bits(f))...)
			}
			b = append(b, '\n')
		}
		return string(b)
	}

	// viaShims configures the lean world through SetSampleEncoding and
	// SetWireDedup after construction instead of through Options.
	run := func(lean, viaShims bool, wrap transporttest.WrapConn) [m]rankOut {
		backend := transporttest.TCP()
		if lean {
			backend = transporttest.TCPWrapped("tcp-lean", wrap,
				func(rank int, cfg *tcp.Config) { cfg.Compress = true })
		}
		var out [m]rankOut
		err := backend.Run(m, func(c *mpi.Comm) error {
			parts, err := shuffle.Partition(n, m, seed)
			if err != nil {
				return err
			}
			st := store.NewLocal(0)
			for _, id := range parts[c.Rank()] {
				if err := st.Put(mkSample(id)); err != nil {
					return err
				}
			}
			var opts shuffle.Options
			if lean && !viaShims {
				opts = shuffle.Options{Encoding: data.EncodingFP16Exact, DedupBudget: 8 << 20}
			}
			sched, err := shuffle.NewScheduler(c, st, q, n, seed, opts)
			if err != nil {
				return err
			}
			if lean && viaShims {
				if err := sched.SetSampleEncoding(data.EncodingFP16Exact); err != nil {
					return err
				}
				if err := sched.SetWireDedup(8 << 20); err != nil {
					return err
				}
			}
			for epoch := 0; epoch < epochs; epoch++ {
				if err := sched.RunEpochExchange(epoch); err != nil {
					return fmt.Errorf("rank %d epoch %d: %w", c.Rank(), epoch, err)
				}
			}
			sent, recv := sched.CumulativeWireTraffic()

			// Exactness needs a quiesced window (see coalesce_test.go for the
			// full argument): until the staged handshake below, the only
			// data-plane frames this rank has sent or received are exchange
			// frames, so the scheduler's totals must equal the transport's
			// data-kind socket counters exactly. The handshake go-token is one
			// KindData frame, accounted for explicitly.
			const (
				tagGo      = 9001
				tagAck     = 9002
				tagRelease = 9003
			)
			token := []byte{1}
			var verdict error
			snapshot := func(extraRecv int64) {
				s := c.Transport().Stats()
				dataSent := s.SentBytesByKind[transport.KindData] + s.SentBytesByKind[transport.KindDataZ] + s.SentBytesByKind[transport.KindDataRef]
				dataRecv := s.RecvBytesByKind[transport.KindData] + s.RecvBytesByKind[transport.KindDataZ] + s.RecvBytesByKind[transport.KindDataRef]
				if dataSent != sent {
					verdict = fmt.Errorf("rank %d: transport sent %d data-kind bytes, scheduler accounts for %d", c.Rank(), dataSent, sent)
				} else if dataRecv != recv+extraRecv {
					verdict = fmt.Errorf("rank %d: transport received %d data-kind bytes, scheduler accounts for %d", c.Rank(), dataRecv, recv+extraRecv)
				} else if recv == 0 {
					verdict = fmt.Errorf("rank %d: no exchange wire traffic across %d epochs", c.Rank(), epochs)
				}
			}
			if c.Rank() == 0 {
				snapshot(0)
				for r := 1; r < m; r++ {
					c.Send(r, tagGo, token)
				}
				for r := 1; r < m; r++ {
					c.Recv(r, tagAck)
				}
				for r := 1; r < m; r++ {
					c.Send(r, tagRelease, token)
				}
			} else {
				c.Recv(0, tagGo)
				snapshot(transport.FrameWireSize(token))
				c.Send(0, tagAck, token)
				c.Recv(0, tagRelease)
			}
			if verdict != nil {
				return verdict
			}
			hits, _ := sched.CumulativeDedup()
			out[c.Rank()] = rankOut{wire: sent + recv, dedupHits: hits, fingerprint: fingerprint(st)}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	base := run(false, false, nil)
	lean := run(true, false, nil)
	wrapped := run(true, false, func(_ int, inner transport.Conn) transport.Conn {
		return faultinject.New(inner, faultinject.Script{})
	})
	shims := run(true, true, nil)

	var baseWire, leanWire, hits int64
	for r := 0; r < m; r++ {
		if base[r].fingerprint != lean[r].fingerprint {
			t.Fatalf("rank %d: final store differs between baseline and lean wire:\nbaseline:\n%s\nlean:\n%s",
				r, base[r].fingerprint, lean[r].fingerprint)
		}
		if wrapped[r] != lean[r] {
			t.Fatalf("rank %d: the lean exchange under an idle injector booked %d wire bytes (%d dedup hits), bare %d (%d)",
				r, wrapped[r].wire, wrapped[r].dedupHits, lean[r].wire, lean[r].dedupHits)
		}
		if shims[r] != lean[r] {
			t.Fatalf("rank %d: the lean exchange configured through the setters booked %d wire bytes (%d dedup hits), through Options %d (%d), or holds different samples",
				r, shims[r].wire, shims[r].dedupHits, lean[r].wire, lean[r].dedupHits)
		}
		baseWire += base[r].wire
		leanWire += lean[r].wire
		hits += lean[r].dedupHits
	}
	if hits == 0 {
		t.Errorf("lean run scored zero dedup hits over %d epochs; the reference-frame path went unexercised", epochs)
	}
	ratio := float64(baseWire) / float64(leanWire)
	t.Logf("exchange wire bytes: baseline %d, lean %d (%.2fx, %d dedup hits)", baseWire, leanWire, ratio, hits)
	if ratio < 2 {
		t.Fatalf("lean exchange moved %d bytes vs baseline %d: %.2fx, want >= 2x", leanWire, baseWire, ratio)
	}
}

// BenchmarkExchangeWireTCPQ25 measures one full Q=0.25 epoch exchange over
// real TCP sockets for the stock wire and the lean wire (fp16exact + dedup
// + compression), reporting the exchange volume as wire-bytes/op so the
// byte win shows alongside the time.
func BenchmarkExchangeWireTCPQ25(b *testing.B) {
	const (
		m       = 4
		perRank = 32
		n       = m * perRank
		q       = 0.25
		featDim = 128
		seed    = uint64(23)
	)
	mkSample := func(id int) data.Sample {
		feats := make([]float32, featDim)
		for j := range feats {
			feats[j] = float32((id*7 + j) % 23)
		}
		return data.Sample{ID: id, Label: id % 10, Features: feats, Bytes: 1000}
	}
	for _, lean := range []bool{false, true} {
		name := "baseline"
		backend := transporttest.TCP()
		if lean {
			name = "lean"
			backend = transporttest.TCPWrapped("tcp-lean", nil,
				func(rank int, cfg *tcp.Config) { cfg.Compress = true })
		}
		b.Run(name, func(b *testing.B) {
			var wireBytes int64
			for i := 0; i < b.N; i++ {
				var iterBytes [m]int64
				err := backend.Run(m, func(c *mpi.Comm) error {
					parts, err := shuffle.Partition(n, m, seed)
					if err != nil {
						return err
					}
					st := store.NewLocal(0)
					for _, id := range parts[c.Rank()] {
						if err := st.Put(mkSample(id)); err != nil {
							return err
						}
					}
					var opts shuffle.Options
					if lean {
						opts = shuffle.Options{Encoding: data.EncodingFP16Exact, DedupBudget: 8 << 20}
					}
					sched, err := shuffle.NewScheduler(c, st, q, n, seed, opts)
					if err != nil {
						return err
					}
					for epoch := 0; epoch < 2; epoch++ {
						if err := sched.RunEpochExchange(epoch); err != nil {
							return err
						}
					}
					sent, _ := sched.CumulativeWireTraffic()
					iterBytes[c.Rank()] = sent
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range iterBytes {
					wireBytes += v
				}
			}
			b.ReportMetric(float64(wireBytes)/float64(b.N), "wire-bytes/op")
		})
	}
}

// TestRunEpochExchangeOverTCP drives the full Algorithm 1 epoch exchange
// across a 4-rank world whose every frame crosses real localhost TCP
// sockets, for Q ∈ {0, 0.25, 1}. After each epoch every rank must hold
// exactly N/M samples (the balance invariant), the union of all local
// stores must still be exactly the dataset, and each rank's storage
// high-water mark must respect the paper's (1+Q)·N/M bound.
func TestRunEpochExchangeOverTCP(t *testing.T) {
	const (
		m           = 4
		perRank     = 32
		n           = m * perRank
		epochs      = 3
		sampleBytes = int64(1000)
		seed        = uint64(7)
	)
	for _, q := range []float64{0, 0.25, 1} {
		q := q
		t.Run(fmt.Sprintf("Q=%v", q), func(t *testing.T) {
			t.Parallel()
			err := transporttest.TCP().Run(m, func(c *mpi.Comm) error {
				// Deterministic initial partition, identical on every rank.
				parts, err := shuffle.Partition(n, m, seed)
				if err != nil {
					return err
				}
				st := store.NewLocal(0)
				for _, id := range parts[c.Rank()] {
					s := data.Sample{ID: id, Label: id % 10, Features: []float32{float32(id), -float32(id)}, Bytes: sampleBytes}
					if err := st.Put(s); err != nil {
						return err
					}
				}
				sched, err := shuffle.NewScheduler(c, st, q, n, seed)
				if err != nil {
					return err
				}
				for epoch := 0; epoch < epochs; epoch++ {
					if err := sched.RunEpochExchange(epoch); err != nil {
						return fmt.Errorf("rank %d epoch %d: %w", c.Rank(), epoch, err)
					}
					if got := st.Len(); got != perRank {
						return fmt.Errorf("rank %d epoch %d: %d samples, want exactly N/M = %d", c.Rank(), epoch, got, perRank)
					}
				}

				// Peak storage bound: N/M resident plus at most Q·N/M received
				// before the sent samples are deleted (Section III-A).
				limit := int64(float64(perRank)*(1+q)) * sampleBytes
				if st.Peak() > limit {
					return fmt.Errorf("rank %d: peak storage %d bytes exceeds (1+%v)·N/M = %d", c.Rank(), st.Peak(), q, limit)
				}

				// Coverage: the union of the local stores is exactly 0..N-1.
				ids := st.IDs()
				local := make([]int64, perRank)
				for i, id := range ids {
					local[i] = int64(id)
				}
				all := mpi.Gather(c, local, 0)
				if c.Rank() == 0 {
					sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
					for i, id := range all {
						if id != int64(i) {
							return fmt.Errorf("after %d epochs sample ids are not a permutation of 0..%d (position %d holds %d)", epochs, n-1, i, id)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
