package mpi

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// fillPseudo fills buf with rank-dependent pseudo-random float32 values
// whose sums exercise non-associativity: if the async path reduced elements
// in a different order than the flat ring, the bit patterns would differ.
func fillPseudo(buf []float32, rank int) {
	state := uint64(rank)*2654435761 + 12345
	for i := range buf {
		state = state*6364136223846793005 + 1442695040888963407
		// Map to a wide magnitude range so addition order matters.
		buf[i] = float32(int32(state>>33)) * float32(math.Pow(10, float64(i%7)-3))
	}
}

func bitsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestIAllreduceMatchesAllreduce pins the headline determinism contract:
// the non-blocking ring produces bitwise-identical results to the blocking
// one, for sizes that do and do not divide the buffer length.
func TestIAllreduceMatchesAllreduce(t *testing.T) {
	for _, elems := range []int{1, 7, 64, 1023} {
		for _, ranks := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("elems=%d/ranks=%d", elems, ranks), func(t *testing.T) {
				runOrFail(t, ranks, func(c *Comm) error {
					flat := make([]float32, elems)
					async := make([]float32, elems)
					fillPseudo(flat, c.Rank())
					copy(async, flat)

					Allreduce(c, flat, OpSum)
					req := IAllreduce(c, async, OpSum)
					req.Wait()
					if !req.Test() {
						return fmt.Errorf("rank %d: Test() false after Wait", c.Rank())
					}
					if i, ok := bitsEqual(flat, async); !ok {
						return fmt.Errorf("rank %d: element %d differs: flat=%x async=%x",
							c.Rank(), i, math.Float32bits(flat[i]), math.Float32bits(async[i]))
					}
					return nil
				})
			})
		}
	}
}

// TestIAllreduceChunksInheritedBoundsBitwise is the property the bucketed
// gradient sync stands on: splitting one flat buffer into contiguous
// ranges and reducing each range with the global partition clamped to it
// reproduces the single flat Allreduce bit for bit — every element keeps
// its chunk index, hence its reduction order.
func TestIAllreduceChunksInheritedBoundsBitwise(t *testing.T) {
	const elems = 1000
	// Deliberately awkward splits: not aligned to the rank partition, with
	// ranges both smaller and larger than one chunk.
	splits := [][2]int{{0, 130}, {130, 137}, {137, 600}, {600, 1000}}
	for _, ranks := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			runOrFail(t, ranks, func(c *Comm) error {
				flat := make([]float32, elems)
				bucketed := make([]float32, elems)
				fillPseudo(flat, c.Rank())
				copy(bucketed, flat)

				Allreduce(c, flat, OpSum)

				size := c.Size()
				global := make([]int, size+1)
				fillDefaultBounds(global, elems, size)
				reqs := make([]*CollRequest, 0, len(splits))
				for _, sp := range splits {
					lo, hi := sp[0], sp[1]
					bounds := make([]int, size+1)
					for i := range bounds {
						b := global[i]
						if b < lo {
							b = lo
						}
						if b > hi {
							b = hi
						}
						bounds[i] = b - lo
					}
					reqs = append(reqs, IAllreduceChunks(c, bucketed[lo:hi], OpSum, bounds))
				}
				WaitAllColl(reqs)
				if i, ok := bitsEqual(flat, bucketed); !ok {
					return fmt.Errorf("rank %d: element %d differs: flat=%x bucketed=%x",
						c.Rank(), i, math.Float32bits(flat[i]), math.Float32bits(bucketed[i]))
				}
				return nil
			})
		})
	}
}

// TestIAllreduceOverlapsBlockingCollectives checks tag isolation: while
// several async reductions are in flight, blocking collectives (Bcast,
// Allreduce, Barrier) run to completion without cross-talk, and the async
// results are still correct afterwards.
func TestIAllreduceOverlapsBlockingCollectives(t *testing.T) {
	runOrFail(t, 4, func(c *Comm) error {
		const elems = 256
		bufs := make([][]float32, 3)
		reqs := make([]*CollRequest, 3)
		for i := range bufs {
			bufs[i] = make([]float32, elems)
			for j := range bufs[i] {
				bufs[i][j] = float32(c.Rank()*100 + i)
			}
			reqs[i] = IAllreduce(c, bufs[i], OpSum)
		}
		// Blocking traffic while the rings progress in the background.
		probe := []int{c.Rank()}
		Allreduce(c, probe, OpSum)
		if want := 0 + 1 + 2 + 3; probe[0] != want {
			return fmt.Errorf("rank %d: blocking Allreduce = %d, want %d", c.Rank(), probe[0], want)
		}
		b := []int{c.Rank() + 7}
		Bcast(c, b, 2)
		if b[0] != 9 {
			return fmt.Errorf("rank %d: Bcast = %d, want 9", c.Rank(), b[0])
		}
		c.Barrier()
		WaitAllColl(reqs)
		for i := range bufs {
			// sum over ranks of (rank*100 + i) = 600 + 4i
			want := float32(600 + 4*i)
			for j, v := range bufs[i] {
				if v != want {
					return fmt.Errorf("rank %d: buf[%d][%d] = %v, want %v", c.Rank(), i, j, v, want)
				}
			}
		}
		return nil
	})
}

// TestIAllreduceInheritsProgramOrderTags checks that interleaving async
// launches with blocking collectives on the owner goroutine keeps the
// shared sequence space aligned across ranks (each launch reserves its seq
// synchronously even though the ring runs later).
func TestIAllreduceInheritsProgramOrderTags(t *testing.T) {
	runOrFail(t, 3, func(c *Comm) error {
		for iter := 0; iter < 10; iter++ {
			a := []float32{float32(c.Rank() + iter)}
			req := IAllreduce(c, a, OpSum)
			s := []int{1}
			Allreduce(c, s, OpSum)
			req.Wait()
			if want := float32(0 + 1 + 2 + 3*iter); a[0] != want {
				return fmt.Errorf("rank %d iter %d: async = %v, want %v", c.Rank(), iter, a[0], want)
			}
		}
		return nil
	})
}

// TestIAllreduceChunksValidation pins the fail-fast contract on malformed
// partitions.
func TestIAllreduceChunksValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	runOrFail(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := make([]float32, 10)
			mustPanic("short bounds", func() { IAllreduceChunks(c, buf, OpSum, []int{0, 10}) })
			mustPanic("bad span", func() { IAllreduceChunks(c, buf, OpSum, []int{0, 5, 9}) })
			mustPanic("decreasing", func() { IAllreduceChunks(c, buf, OpSum, []int{0, 7, 5, 10}) })
		}
		c.Barrier()
		return nil
	})
}

// TestIAllreduceSingleRank pins the size-1 fast path: complete on arrival,
// zero wire bytes, no goroutine.
func TestIAllreduceSingleRank(t *testing.T) {
	runOrFail(t, 1, func(c *Comm) error {
		buf := []float32{1, 2, 3}
		req := IAllreduce(c, buf, OpSum)
		if !req.Test() {
			return fmt.Errorf("size-1 request not immediately complete")
		}
		req.Wait()
		if s, r := req.WireBytes(); s != 0 || r != 0 {
			return fmt.Errorf("size-1 wire bytes = %d/%d, want 0/0", s, r)
		}
		if buf[0] != 1 || buf[2] != 3 {
			return fmt.Errorf("size-1 buffer mutated: %v", buf)
		}
		return nil
	})
}

// TestIAllreduceNoGoroutineLeak drives many async reductions through their
// full lifecycle and checks the process goroutine count returns to its
// baseline: every collective goroutine must exit once its ring completes.
func TestIAllreduceNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	runOrFail(t, 4, func(c *Comm) error {
		buf := make([]float32, 512)
		for iter := 0; iter < 50; iter++ {
			reqs := make([]*CollRequest, 4)
			for i := range reqs {
				reqs[i] = IAllreduce(c, buf, OpSum)
				reqs[i].Wait()
			}
		}
		return nil
	})
	// The world has torn down; give exited goroutines a beat to be reaped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIAllreduceSteadyStateAllocBound bounds the per-operation allocation
// cost of the async path on reused buffers and a precomputed partition.
// Relative to the blocking ring it adds one goroutine, one CollRequest,
// and one done channel per call — a small constant, independent of the
// element count. The budget is ~2× the measured cost across a 4-rank
// world (blocking ring ≈120 allocs/op + ≈4×5 async bookkeeping).
func TestIAllreduceSteadyStateAllocBound(t *testing.T) {
	skipIfRace(t)
	const (
		ranks = 4
		elems = 4096
		iters = 100
	)
	var perOp float64
	err := Run(ranks, func(c *Comm) error {
		buf := make([]float32, elems)
		bounds := make([]int, ranks+1)
		fillDefaultBounds(bounds, elems, ranks)
		for i := 0; i < 5; i++ {
			IAllreduceChunks(c, buf, OpSum, bounds).Wait()
		}
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		Bcast(c, []int{1}, 0)
		for i := 0; i < iters; i++ {
			IAllreduceChunks(c, buf, OpSum, bounds).Wait()
		}
		Gather(c, []int{c.Rank()}, 0)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perOp = float64(m1.Mallocs-m0.Mallocs) / iters
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 300
	if perOp > budget {
		t.Errorf("async all-reduce allocates %.1f allocs/op across %d ranks, budget %d", perOp, ranks, budget)
	}
	t.Logf("IAllreduceChunks steady state: %.1f allocs/op across %d ranks (%d elems)", perOp, ranks, elems)
}

// TestIAllreduceStepOwnerSteps pins the owner step: each rank steps at most
// its own chunk (GroupRank()+1) mod M, once, never an empty one, after the
// averaging; the all-gather then carries out's chunks, so every rank's out
// ends as the step applied to the blocking Allreduce's result everywhere.
// Bucket-like ranges clamp the global partition, which empties chunks, so
// some ranks own nothing in some ranges.
func TestIAllreduceStepOwnerSteps(t *testing.T) {
	const elems = 1000
	splits := [][2]int{{0, 130}, {130, 137}, {137, 500}, {500, 1000}}
	for _, ranks := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			runOrFail(t, ranks, func(c *Comm) error {
				ref := make([]float32, elems)
				buf := make([]float32, elems)
				fillPseudo(ref, c.Rank())
				copy(buf, ref)
				Allreduce(c, ref, OpAvg)

				size := c.Size()
				global := make([]int, size+1)
				fillDefaultBounds(global, elems, size)
				out := make([]float32, elems)
				calls := make([][][2]int, len(splits))
				reqs := make([]*CollRequest, len(splits))
				bounds := make([][]int, len(splits))
				for si, sp := range splits {
					lo, hi := sp[0], sp[1]
					bounds[si] = make([]int, size+1)
					for i := range bounds[si] {
						bounds[si][i] = min(max(global[i], lo), hi) - lo
					}
					b, o := buf[lo:hi], out[lo:hi]
					step := func(s, e int) {
						calls[si] = append(calls[si], [2]int{s, e})
						for i := s; i < e; i++ {
							o[i] = 2*b[i] + 1
						}
					}
					reqs[si] = IAllreduceStep(c, b, o, OpAvg, bounds[si], step)
				}
				WaitAllColl(reqs)
				for i := range out {
					if want := 2*ref[i] + 1; math.Float32bits(out[i]) != math.Float32bits(want) {
						return fmt.Errorf("rank %d: out[%d] = %v, want %v", c.Rank(), i, out[i], want)
					}
				}
				own := (c.GroupRank() + 1) % size
				for si := range splits {
					lo, hi := bounds[si][own], bounds[si][own+1]
					switch {
					case lo == hi && len(calls[si]) != 0:
						return fmt.Errorf("rank %d range %d: stepped %v, but it owns nothing there", c.Rank(), si, calls[si])
					case lo < hi && (len(calls[si]) != 1 || calls[si][0] != [2]int{lo, hi}):
						return fmt.Errorf("rank %d range %d: stepped %v, want its chunk [%d,%d) once", c.Rank(), si, calls[si], lo, hi)
					}
				}
				return nil
			})
		})
	}
}
