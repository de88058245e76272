package mpi_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/transporttest"
)

// gradsyncFloats is the gradient of the benchmark's gradsync workload (the
// 64-512-512-512-16 MLP with batch norm): the buffer the all-reduce gates
// and benchmarks below are shaped like.
const gradsyncFloats = 569_872

// gradValue is a deterministic, rank-dependent test gradient with varied
// magnitudes and signs, so sums round.
func gradValue(rank, i int) float32 {
	x := uint32(i)*2654435761 + uint32(rank)*40503
	return (float32(x>>8)/float32(1<<24) - 0.5) * float32(math.Ldexp(1, int(x&15)-8))
}

// TestAllreduceWireTCPAllocGate pins what the pooled receive path is for: a
// steady-state AllreduceWire of the gradsync gradient over real TCP sockets
// allocates, per call and per rank, under 1 % of the buffer's bytes. Before
// the pool every received chunk was a fresh slice and a call allocated 1.5×
// the buffer (3.4 MiB per rank).
func TestAllreduceWireTCPAllocGate(t *testing.T) {
	if mpi.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ranks, iters = 4, 50
	var perCall float64
	err := transporttest.TCP().Run(ranks, func(c *mpi.Comm) error {
		buf := make([]float32, gradsyncFloats)
		for i := 0; i < 20; i++ { // fill the pool and every scratch buffer
			mpi.AllreduceWire(c, buf, mpi.OpAvg)
		}
		// Fences as in TestAllreduceSteadyStateAllocBound: rank 0 reads the
		// baseline before anyone starts and the total after everyone is done.
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		mpi.Bcast(c, []int{1}, 0)
		for i := 0; i < iters; i++ {
			mpi.AllreduceWire(c, buf, mpi.OpAvg)
		}
		mpi.Gather(c, []int{c.Rank()}, 0)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perCall = float64(m1.TotalAlloc-m0.TotalAlloc) / (iters * ranks)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	limit := 0.01 * 4 * gradsyncFloats
	t.Logf("steady-state AllreduceWire over TCP: %.0f bytes allocated per call per rank (limit %.0f)", perCall, limit)
	if perCall > limit {
		t.Fatalf("AllreduceWire of %d floats allocates %.0f bytes per call per rank, want < 1%% of the buffer (%.0f)",
			gradsyncFloats, perCall, limit)
	}
}

// TestPooledChunksNeverAliasUserPayloads is the ownership rule under the
// race detector, on both backends: a []float32 that arrived through a
// user-level Recv is the caller's for good. Rank 0 holds one, of exactly the
// ring's chunk length (so it is of the very size class the ring recycles),
// across 200 all-reduces and finds it untouched; and once the worlds are
// gone, no two buffers in the pool share memory with each other or with the
// held payload — which a chunk released twice, or a released user payload,
// would make them do.
func TestPooledChunksNeverAliasUserPayloads(t *testing.T) {
	const ranks, chunk, rounds = 4, 4096, 200
	for _, backend := range []transporttest.Backend{transporttest.Inproc(), transporttest.TCP()} {
		t.Run(backend.Name(), func(t *testing.T) {
			var held []float32
			err := backend.Run(ranks, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					msg := make([]float32, chunk)
					for i := range msg {
						msg[i] = gradValue(9, i)
					}
					c.Send(0, 7, msg)
				}
				if c.Rank() == 0 {
					payload, _ := c.Recv(1, 7)
					held = payload.([]float32)
				}
				buf := make([]float32, ranks*chunk)
				for round := 0; round < rounds; round++ {
					for i := range buf {
						buf[i] = float32(c.Rank() + round)
					}
					mpi.Allreduce(c, buf, mpi.OpSum)
					want := float32(ranks*round + ranks*(ranks-1)/2)
					for i, v := range buf {
						if v != want {
							return fmt.Errorf("rank %d round %d: element %d = %v, want %v", c.Rank(), round, i, v, want)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(held) != chunk {
				t.Fatalf("held payload has %d elements, want %d", len(held), chunk)
			}
			for i, v := range held {
				if math.Float32bits(v) != math.Float32bits(gradValue(9, i)) {
					t.Fatalf("user-level payload changed under the all-reduces: element %d = %v, want %v", i, v, gradValue(9, i))
				}
			}
			// Empty the class (and then some): every buffer handed out must be
			// distinct memory, and none may be the payload rank 0 still holds.
			seen := map[*float32]bool{&held[0]: true}
			var keep [][]float32
			for i := 0; i < 4*ranks*rounds/10; i++ {
				f := transport.GetFloat32s(chunk)
				if seen[&f[0]] {
					t.Fatalf("the pool handed out the same memory twice (Get #%d): a chunk was released twice, or a user payload was released", i)
				}
				seen[&f[0]] = true
				keep = append(keep, f)
			}
			runtime.KeepAlive(keep)
		})
	}
}

// TestOpAvgEqualsSumThenScaleBitwise: averaging inside the ring — the chunk's
// owner scales its fully reduced chunk once, before the all-gather — gives
// bit for bit what summing and then scaling every element on every rank
// gave, for every group size the trainer can be in (including a shrunken
// group), on the blocking ring, the bucketed non-blocking ring with clamped
// bounds, and the naive gather-to-rank-0 reduction.
func TestOpAvgEqualsSumThenScaleBitwise(t *testing.T) {
	const n = 1031 // prime: no group size divides it
	check := func(c *mpi.Comm, label string, avg, sum []float32) error {
		inv := 1 / float32(c.GroupSize())
		for i := range sum {
			if want := sum[i] * inv; math.Float32bits(avg[i]) != math.Float32bits(want) {
				return fmt.Errorf("rank %d %s element %d: in-ring average %v (%08x), sum-then-scale %v (%08x)",
					c.Rank(), label, i, avg[i], math.Float32bits(avg[i]), want, math.Float32bits(want))
			}
		}
		return nil
	}
	fill := func(c *mpi.Comm) []float32 {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = gradValue(c.Rank(), i)
		}
		return buf
	}
	body := func(c *mpi.Comm) error {
		size := c.GroupSize()
		avg, sum := fill(c), fill(c)
		mpi.Allreduce(c, avg, mpi.OpAvg)
		mpi.Allreduce(c, sum, mpi.OpSum)
		if err := check(c, "Allreduce", avg, sum); err != nil {
			return err
		}

		// A bucket [lo, hi) of the flat buffer under the global partition
		// clamped to it, as the trainer's overlapped path launches it.
		lo, hi := n/3, n-n/5
		bounds := make([]int, size+1)
		for i := range bounds {
			bounds[i] = min(max(i*n/size, lo), hi) - lo
		}
		bucket := fill(c)
		mpi.IAllreduceChunks(c, bucket[lo:hi], mpi.OpAvg, bounds).Wait()
		if err := check(c, "IAllreduceChunks", bucket[lo:hi], sum[lo:hi]); err != nil {
			return err
		}

		naive := fill(c)
		mpi.AllreduceNaive(c, naive, mpi.OpAvg)
		nsum := fill(c)
		mpi.AllreduceNaive(c, nsum, mpi.OpSum)
		return check(c, "AllreduceNaive", naive, nsum)
	}
	for m := 2; m <= 5; m++ {
		t.Run(fmt.Sprintf("M=%d", m), func(t *testing.T) {
			if err := mpi.Run(m, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("M=5 shrunk to 4", func(t *testing.T) {
		err := mpi.Run(5, func(c *mpi.Comm) error {
			if c.Rank() == 2 {
				return nil // the rank the others go on without
			}
			if err := c.Shrink([]int{0, 1, 3, 4}); err != nil {
				return err
			}
			return body(c)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("integers refused", func(t *testing.T) {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			mpi.Allreduce(c, []int{1, 2, 3}, mpi.OpAvg)
			return nil
		})
		if err == nil {
			t.Fatal("OpAvg over []int must not silently truncate to zero")
		}
	})
}

// TestFloat32ReduceMatchesGenericLoop: a []float32 under OpSum/OpAvg folds
// through tensor's vector kernels, every other element type through the
// generic loops. A named float32 type takes the loops, so the same values
// reduced both ways must agree bit for bit — on the chunks a 4-rank ring
// gives a 1031-element buffer, each with a ragged vector tail, folded in
// ring order and finished as the chunk's owner finishes it.
func TestFloat32ReduceMatchesGenericLoop(t *testing.T) {
	type named float32
	const n, ranks = 1031, 4
	for _, op := range []mpi.Op{mpi.OpSum, mpi.OpAvg} {
		for k := 0; k < ranks; k++ {
			lo, hi := k*n/ranks, (k+1)*n/ranks
			values := func(r int) ([]float32, []named) {
				f, s := make([]float32, hi-lo), make([]named, hi-lo)
				for i := range f {
					f[i] = gradValue(r, lo+i)
					s[i] = named(f[i])
				}
				return f, s
			}
			fast, slow := values(k)
			for j := 1; j < ranks; j++ {
				fsrc, ssrc := values((k + j) % ranks)
				mpi.ReduceInto(fast, fsrc, op)
				mpi.ReduceInto(slow, ssrc, op)
			}
			if op == mpi.OpAvg {
				mpi.ScaleAvg(fast, ranks)
				mpi.ScaleAvg(slow, ranks)
			}
			for i := range fast {
				if math.Float32bits(fast[i]) != math.Float32bits(float32(slow[i])) {
					t.Fatalf("op %d chunk %d element %d: kernel %v, loop %v", op, k, lo+i, fast[i], slow[i])
				}
			}
		}
	}
}
