package arena

import "testing"

func TestFloatsBumpsWithinCapacity(t *testing.T) {
	a := New(64)
	x := a.Floats(16)
	y := a.Floats(16)
	if len(x) != 16 || len(y) != 16 {
		t.Fatalf("lengths %d, %d", len(x), len(y))
	}
	x[15] = 1
	if y[0] != 0 {
		t.Fatal("second allocation overlaps the first")
	}
	if a.Used() != 32 {
		t.Fatalf("Used = %d, want 32", a.Used())
	}
}

func TestGrowKeepsOldSlicesValid(t *testing.T) {
	a := New(8)
	x := a.Floats(8)
	for i := range x {
		x[i] = float32(i)
	}
	y := a.Floats(1 << 16) // does not fit: a new chunk
	for i := range y {
		y[i] = -1
	}
	z := a.Floats(3) // fits nowhere left: another
	for i := range z {
		z[i] = -2
	}
	for i := range x {
		if x[i] != float32(i) {
			t.Fatalf("old slice corrupted at %d after grow", i)
		}
	}
	for i := range y {
		if y[i] != -1 {
			t.Fatalf("second slice corrupted at %d after grow", i)
		}
	}
}

// trainStep is a request sequence shaped like a training step: a few large
// workspaces, a few small ones, interleaved.
var (
	trainStep = []int{4096, 4096, 96, 4096, 4096, 96, 160, 160, 160, 4096, 4096}
	evalBatch = []int{2048, 8192, 8192, 8192, 8192, 320} // larger than a step
	smallEval = []int{1024, 2048, 2048, 2048, 40}
)

func total(seq []int) int {
	n := 0
	for _, v := range seq {
		n += v
	}
	return n
}

func run(a *Arena, seq []int) {
	a.Reset()
	for _, n := range seq {
		_ = a.Floats(n)
	}
}

// TestCapacityIsFirstStepHighWater: an arena that starts empty holds,
// after one step, exactly what that step asked for, and keeps it.
func TestCapacityIsFirstStepHighWater(t *testing.T) {
	a := New(0)
	run(a, trainStep)
	hw := total(trainStep)
	if a.Used() != hw || a.Cap() != hw {
		t.Fatalf("after one step: used %d, capacity %d, want both %d", a.Used(), a.Cap(), hw)
	}
	run(a, trainStep)
	a.Reset()
	if a.Cap() != hw {
		t.Fatalf("capacity drifted to %d after a second step, want %d", a.Cap(), hw)
	}
}

// TestRepeatedSequenceZeroAllocs: once sized, a repeated request sequence
// re-bumps the same chunks and allocates nothing.
func TestRepeatedSequenceZeroAllocs(t *testing.T) {
	a := New(0)
	run(a, trainStep)
	if n := testing.AllocsPerRun(50, func() { run(a, trainStep) }); n != 0 {
		t.Fatalf("repeated step allocs/op = %v, want 0", n)
	}
}

// TestTrainEvalInterleaveZeroAllocs: training steps interleaved with eval
// batches, larger or smaller than the step, settle at the larger of the
// two high-water marks and then allocate nothing.
func TestTrainEvalInterleaveZeroAllocs(t *testing.T) {
	for _, eval := range [][]int{evalBatch, smallEval} {
		a := New(0)
		interleave := func() {
			run(a, trainStep)
			run(a, eval)
			run(a, eval)
		}
		interleave()
		interleave()
		a.Reset()
		if want := max(total(trainStep), total(eval)); a.Cap() != want {
			t.Fatalf("eval of %d floats: capacity %d, want max(step, eval batch) = %d", total(eval), a.Cap(), want)
		}
		if n := testing.AllocsPerRun(50, interleave); n != 0 {
			t.Fatalf("eval of %d floats: interleaved allocs/op = %v, want 0", total(eval), n)
		}
	}
}

// TestResetRewindsAcrossChunks: slices bumped across several chunks in one
// cycle never overlap, and the next cycle reuses the same memory.
func TestResetRewindsAcrossChunks(t *testing.T) {
	a := New(0)
	var seen []*float32
	fill := func() {
		a.Reset()
		seen = seen[:0]
		for i, n := range trainStep {
			s := a.Floats(n)
			for j := range s {
				s[j] = float32(i)
			}
			seen = append(seen, &s[0])
		}
	}
	fill()
	first := append([]*float32(nil), seen...)
	fill()
	for i, n := range trainStep {
		if seen[i] != first[i] {
			t.Fatalf("request %d moved between cycles", i)
		}
		if *seen[i] != float32(i) {
			t.Fatalf("request %d (%d floats) overwritten by a later one", i, n)
		}
	}
}

func TestResetReusesBacking(t *testing.T) {
	a := New(0)
	a.Floats(1024)
	capBefore := a.Cap()
	a.Reset()
	if a.Used() != 0 {
		t.Fatalf("Used after Reset = %d", a.Used())
	}
	a.Floats(1024)
	if a.Cap() != capBefore {
		t.Fatalf("Reset did not reuse backing: cap %d -> %d", capBefore, a.Cap())
	}
}

func TestZeroedClearsRecycledMemory(t *testing.T) {
	a := New(0)
	x := a.Floats(32)
	for i := range x {
		x[i] = 7
	}
	a.Reset()
	y := a.Zeroed(32)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("Zeroed[%d] = %v after Reset", i, v)
		}
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	a := New(0)
	a.Floats(4096)
	a.Reset()
	if n := testing.AllocsPerRun(50, func() {
		a.Reset()
		_ = a.Floats(2048)
		_ = a.Zeroed(1024)
	}); n != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", n)
	}
}
