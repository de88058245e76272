// Package arena provides a bump allocator for float32 scratch memory: the
// per-goroutine workspace spine of the compute hot path (DESIGN.md §14).
//
// An Arena hands out sub-slices of its backing chunks with a pointer bump
// and reclaims everything at once with Reset. The training loop owns one
// arena per worker goroutine: every layer workspace and GEMM pack buffer
// is bump-allocated during the step and the whole arena is reset at the
// step boundary.
//
// Growth never copies. A request that fits in no chunk left gets a new
// chunk of exactly its size; the chunks already handed out stay where they
// are, so every earlier slice stays valid. Reset rewinds to the first
// chunk and the next cycle walks the same chunks in order, so an arena that
// starts empty holds, after its first step, exactly that step's high-water
// mark — and a repeated request sequence allocates nothing. A cycle that
// still runs past the end of an arena that already had chunks (an eval
// batch larger than the training step, say) makes its Reset fold every
// chunk into one of max(old capacity, the cycle's floats), so an arena
// serving several request sequences settles at the largest of their
// high-water marks, which is what the alloc regression tests pin.
//
// Arenas are NOT safe for concurrent use; give each goroutine its own
// (the tensor package pools GEMM arenas for exactly this reason).
package arena

// Arena is a float32 bump allocator. The zero value is ready to use.
type Arena struct {
	chunks [][]float32
	cur    int // chunk being bumped
	off    int // bump offset in chunks[cur]
	used   int // floats handed out since the last Reset
	kept   int // chunks the arena had at the last Reset
}

// New returns an arena with capacity for at least capHint floats.
func New(capHint int) *Arena {
	a := &Arena{}
	if capHint > 0 {
		a.chunks = [][]float32{make([]float32, capHint)}
		a.kept = 1
	}
	return a
}

// Floats returns a length-n slice valid until the next Reset. Contents are
// unspecified (callers overwrite fully or zero explicitly). The slice has
// capacity n, so appends never silently alias a neighbour. The slice comes
// from the first chunk, at or after the current one, with n floats left;
// when there is none a new chunk of exactly n floats is appended.
func (a *Arena) Floats(n int) []float32 {
	if n < 0 {
		panic("arena: negative allocation")
	}
	a.used += n
	for ; a.cur < len(a.chunks); a.cur, a.off = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.off+n <= len(c) {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
	}
	if n == 0 {
		return []float32{}
	}
	c := make([]float32, n)
	a.chunks = append(a.chunks, c)
	a.cur, a.off = len(a.chunks)-1, n
	return c
}

// Zeroed returns a length-n slice like Floats with every element set to 0.
func (a *Arena) Zeroed(n int) []float32 {
	s := a.Floats(n)
	clear(s)
	return s
}

// Reset reclaims every outstanding allocation. Slices handed out before
// the call must not be used afterwards: the next allocations will reuse
// the same memory. After a cycle that ran past the end of an arena that
// already had chunks, it folds them into one (see the package comment).
func (a *Arena) Reset() {
	if a.kept > 0 && len(a.chunks) > a.kept {
		n := 0
		for _, c := range a.chunks[:a.kept] {
			n += len(c)
		}
		clear(a.chunks)
		a.chunks = append(a.chunks[:0], make([]float32, max(n, a.used)))
	}
	a.cur, a.off, a.used, a.kept = 0, 0, 0, len(a.chunks)
}

// Used reports the floats handed out since the last Reset.
func (a *Arena) Used() int { return a.used }

// Cap reports the floats the arena's chunks hold together.
func (a *Arena) Cap() int {
	n := 0
	for _, c := range a.chunks {
		n += len(c)
	}
	return n
}
