package mpi

import (
	"runtime"
	"testing"
)

// TestAllreduceSingleRankZeroAlloc pins the trivial fast path: a size-1
// world's Allreduce touches nothing and must not allocate.
func TestAllreduceSingleRankZeroAlloc(t *testing.T) {
	skipIfRace(t)
	err := Run(1, func(c *Comm) error {
		buf := make([]float32, 4096)
		Allreduce(c, buf, OpSum) // warm up
		if allocs := testing.AllocsPerRun(100, func() {
			Allreduce(c, buf, OpSum)
		}); allocs > 0 {
			t.Errorf("size-1 Allreduce allocates %.1f times, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceSteadyStateAllocBound bounds the allocation cost of the
// ring Allreduce on a reused buffer across a 4-rank inproc world. The ring
// now sends chunk sub-slices directly (the inproc backend's defensive
// ClonePayload copy is the single remaining per-send allocation) and reuses
// the chunk-bounds scratch, so steady-state cost is a small constant per
// ring step: the clone, the Request, and mailbox bookkeeping — ≈120
// allocs/op across all four ranks for this shape (≈5 per rank per ring
// step), independent of the element count. The bound below is ~2× that
// measurement; it fails loudly if per-element or per-byte allocations ever
// sneak back in (the pre-optimization path cost roughly twice as much from
// its per-step send copies).
func TestAllreduceSteadyStateAllocBound(t *testing.T) {
	skipIfRace(t)
	const (
		ranks = 4
		elems = 4096
		iters = 100
	)
	var perOp float64
	err := Run(ranks, func(c *Comm) error {
		buf := make([]float32, elems)
		for i := range buf {
			buf[i] = float32(c.Rank())
		}
		// Warm up scratch buffers on every rank.
		for i := 0; i < 5; i++ {
			Allreduce(c, buf, OpSum)
		}
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		// Release the world together so rank 0's baseline read precedes the
		// measured iterations (Bcast itself is inside the measured window on
		// non-root ranks only as its constant send cost — negligible noise).
		Bcast(c, []int{1}, 0)
		for i := 0; i < iters; i++ {
			Allreduce(c, buf, OpSum)
		}
		// Gather-to-root as the stop line: rank 0 reads the end stats only
		// after every rank has finished its iterations.
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
	// Allocation budget per Allreduce across all 4 ranks. Each rank runs
	// 2*(ranks-1)=6 ring steps; each step costs an inproc payload clone, a
	// Request, and mailbox entries. 2× headroom over the measured ~120.
	const budget = 240
	if perOp > budget {
		t.Fatalf("steady-state Allreduce allocates %.1f times per op across %d ranks, budget %d", perOp, ranks, budget)
	}
	t.Logf("steady-state Allreduce: %.1f allocs/op across %d ranks (%d elems)", perOp, ranks, elems)
}

// skipIfRace skips allocation-regression tests under the race detector
// (see raceEnabled).
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}
