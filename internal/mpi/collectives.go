package mpi

import (
	"fmt"

	"plshuffle/internal/tensor"
	"plshuffle/internal/transport"
)

// Op identifies a reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMin
	// OpAvg is OpSum followed by one multiplication by 1/GroupSize(), done
	// once per element by whichever rank finishes reducing it — bit for bit
	// what summing and then scaling every element on every rank gives, for
	// 1/M of the multiplications. Floating-point element types only.
	OpAvg
)

// Number constrains the element types supported by the numeric collectives.
type Number interface {
	~int | ~int64 | ~float32 | ~float64
}

// reduceInto folds src into dst[:len(src)]. Gradients — []float32 under
// OpSum or OpAvg — take tensor's vector add, which is the loop below bit
// for bit; every other element type and operator runs its loop here.
func reduceInto[T Number](dst, src []T, op Op) {
	dst = dst[:len(src)] // one bounds check here instead of one per element
	switch op {
	case OpSum, OpAvg:
		if d, ok := any(dst).([]float32); ok {
			tensor.AddInto(d, any(src).([]float32))
			return
		}
		for i, v := range src {
			dst[i] += v
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown reduction op %d", op))
	}
}

// scaleAvg finishes an OpAvg reduction of fully summed values.
func scaleAvg[T Number](s []T, size int) {
	inv := T(1) / T(size)
	if inv == 0 {
		panic(fmt.Sprintf("mpi: OpAvg needs a floating-point element type, got %T", inv))
	}
	if f, ok := any(s).([]float32); ok {
		tensor.ScaleSlice(f, float32(inv))
		return
	}
	for i := range s {
		s[i] *= inv
	}
}

// release returns a payload received on an internal collective tag to the
// transport's float pool once the collective has reduced or copied it out.
// The collective that received a buffer is its only owner and releases it
// exactly once; payloads a collective hands on to its caller
// (AllgatherVarLen) and everything a user-level Recv returns are
// the caller's and are never released.
func release(payload any) {
	if f, ok := payload.([]float32); ok {
		transport.PutFloat32s(f)
	}
}

// collTag derives a unique internal (negative) tag for one phase of one
// collective invocation. seq is the per-comm collective sequence number,
// which advances identically on all ranks, and phase distinguishes message
// rounds within a single collective. The phase space is wide enough for
// ring algorithms on worlds of up to half a million ranks. Tags start at -2;
// being negative, no internal tag matches a user receive (checkUserTag).
func collTag(seq, phase int) int { return -(2 + seq<<20 + phase) }

// collTagGeneration is the generation (sequence high word) of a collTag.
func collTagGeneration(tag int) int { return (-tag - 2) >> (20 + 32) }

// nextSeq reserves a collective sequence number on this rank.
func (c *Comm) nextSeq() int {
	return int(c.collSeq.Add(1) - 1)
}

// collRoot validates that root (a world rank) is a member of the current
// collective group and returns its group index. Collectives address roots
// by world rank so callers never have to translate, but the algorithms run
// in group coordinates after a Shrink.
func (c *Comm) collRoot(root int, op string) int {
	c.checkRank(root, op)
	gi := c.groupIndex(root)
	if gi < 0 {
		panic(fmt.Sprintf("mpi: %s: root %d is not a member of the collective group %v", op, root, c.GroupRanks()))
	}
	return gi
}

// Bcast distributes root's buffer to every group member using a binomial
// tree. Every participating rank must pass a buffer of identical length;
// non-root buffers are overwritten. root is a world rank and must belong to
// the current collective group.
func Bcast[T any](c *Comm, buf []T, root int) {
	groot := c.collRoot(root, "Bcast")
	seq := c.nextSeq()
	size, rank := c.GroupSize(), c.gidx
	if size == 1 {
		return
	}
	// Rotate group indices so the tree is rooted at 0.
	vrank := (rank - groot + size) % size
	// Receive from parent (except the root).
	if vrank != 0 {
		// Parent is vrank with the lowest set bit cleared.
		parent := c.worldRank(((vrank & (vrank - 1)) + groot) % size)
		payload, _ := c.collWait(c.irecvInternal(parent, collTag(seq, 0)))
		copy(buf, payload.([]T))
		release(payload)
	}
	// Forward to children: vrank | (1<<k) for increasing k above our own
	// lowest set bit.
	lowBit := vrank & (-vrank)
	if vrank == 0 {
		lowBit = size // root forwards on all bits
	}
	for bit := 1; bit < lowBit && bit < size; bit <<= 1 {
		child := vrank | bit
		if child < size {
			c.isendInternal(c.worldRank((child+groot)%size), collTag(seq, 0), buf)
		}
	}
}

// Allreduce combines every rank's buffer element-wise with op and leaves
// the result in every rank's buffer, using a bandwidth-optimal ring
// (reduce-scatter followed by allgather). Works for any world size,
// including sizes that do not divide the buffer length.
func Allreduce[T Number](c *Comm, buf []T, op Op) {
	AllreduceWire(c, buf, op)
}

// AllreduceWire is Allreduce with exact byte accounting: it returns the
// number of wire bytes this rank sent and received for the reduction
// (frame headers included). On non-wire backends (inproc) both counts are
// zero.
func AllreduceWire[T Number](c *Comm, buf []T, op Op) (sent, recv int64) {
	if c.GroupSize() == 1 {
		return 0, 0
	}
	return ringAllreduce(c, buf, buf, op, c.nextSeq(), c.defaultBounds(len(buf)), nil)
}

// defaultBounds fills the Comm's reusable bounds table with the canonical
// flat partition of an n-element buffer into GroupSize() contiguous chunks
// (chunk i = [i*n/size, (i+1)*n/size)). The table is kept on the Comm
// (single-goroutine by contract) so repeated blocking collectives — one
// per training iteration — reuse it; async collectives must NOT use it
// (they outlive the call and would race the next one).
func (c *Comm) defaultBounds(n int) []int {
	size := c.GroupSize()
	if cap(c.boundsScratch) < size+1 {
		c.boundsScratch = make([]int, size+1)
	}
	bounds := c.boundsScratch[:size+1]
	fillDefaultBounds(bounds, n, size)
	return bounds
}

// fillDefaultBounds writes the canonical flat chunk partition into bounds
// (length size+1): bounds[i] = i*n/size.
func fillDefaultBounds(bounds []int, n, size int) {
	for i := 0; i <= size; i++ {
		bounds[i] = i * n / size
	}
}

// ringAllreduce is the shared core of every all-reduce in this package:
// the bandwidth-optimal ring (reduce-scatter followed by allgather) over
// the chunk partition described by bounds (length size+1, non-decreasing,
// bounds[0]=0, bounds[size]=len(buf)). Chunks that are empty under the
// partition are skipped entirely — bounds are identical on every rank, so
// the skip is symmetric and no message is orphaned.
//
// The optional owner step sits between the two phases. The reduce-scatter
// leaves this rank the only holder of chunk (rank+1) fully reduced (and,
// under OpAvg, scaled); step(lo, hi) gets that chunk's range of buf, unless
// it is empty, and writes its result into out[lo:hi]. The allgather then
// circulates out's chunks, so every rank ends with every owner's result in
// out. Without a step, out is buf: the allgather circulates the reduced
// values themselves.
//
// Determinism contract: for a fixed chunk partition, the element-wise
// reduction order depends only on the element's chunk index (chunk i is
// accumulated in ring order starting at rank i, and float addition is
// commutative), so two invocations whose partitions assign an element the
// same chunk index produce bitwise-identical results for that element.
// This is what lets the bucketed non-blocking path (IAllreduceChunks with
// inherited flat bounds) reproduce the flat path bit for bit.
//
// On a wire backend the returned sent/recv totals are the exact frame bytes
// this rank moved — what Send returned and what each received frame's
// Status.Wire carried; on inproc both are zero.
// The function is safe to run on a non-owner goroutine as long as seq was
// reserved by the owning goroutine and bounds is not mutated while it
// runs: the mailbox and both transport backends are concurrency-safe, and
// internal tags derived from seq never collide with other collectives.
func ringAllreduce[T Number](c *Comm, buf, out []T, op Op, seq int, bounds []int, step func(lo, hi int)) (sent, recv int64) {
	size, rank := c.GroupSize(), c.gidx
	at := func(s []T, i int) []T { i = ((i % size) + size) % size; return s[bounds[i]:bounds[i+1]] }

	// Ring segments go out as sub-slices of buf and out, which every backend
	// copies or serialises before Send returns, so later steps may mutate
	// them freely.
	right := c.worldRank((rank + 1) % size)
	left := c.worldRank((rank - 1 + size) % size)

	// Phase 1: reduce-scatter. After size-1 steps, chunk (rank+1) holds the
	// fully reduced values for that segment.
	for k := 0; k < size-1; k++ {
		sendIdx := rank - k
		recvIdx := rank - k - 1
		var req *Request
		if len(at(buf, recvIdx)) > 0 {
			req = c.irecvInternal(left, collTag(seq, k))
		}
		if len(at(buf, sendIdx)) > 0 {
			sent += c.isendInternal(right, collTag(seq, k), at(buf, sendIdx))
		}
		if req != nil {
			payload, st := c.collWait(req)
			recv += st.Wire
			reduceInto(at(buf, recvIdx), payload.([]T), op)
			release(payload)
		}
	}
	if op == OpAvg {
		scaleAvg(at(buf, rank+1), size)
	}
	if own := (rank + 1) % size; step != nil && bounds[own] < bounds[own+1] {
		step(bounds[own], bounds[own+1])
	}
	// Phase 2: allgather of the owners' chunks around the ring.
	for k := 0; k < size-1; k++ {
		sendIdx := rank - k + 1
		recvIdx := rank - k
		var req *Request
		if len(at(out, recvIdx)) > 0 {
			req = c.irecvInternal(left, collTag(seq, size+k))
		}
		if len(at(out, sendIdx)) > 0 {
			sent += c.isendInternal(right, collTag(seq, size+k), at(out, sendIdx))
		}
		if req != nil {
			payload, st := c.collWait(req)
			recv += st.Wire
			copy(at(out, recvIdx), payload.([]T))
			release(payload)
		}
	}
	if !c.wire {
		return 0, 0
	}
	return sent, recv
}

// Gather collects each group member's send buffer at root. At root the
// return value has GroupSize()*len(send) elements ordered by group index
// (world-rank order over the group members); other ranks receive nil. root
// is a world rank and must belong to the current collective group.
func Gather[T any](c *Comm, send []T, root int) []T {
	c.collRoot(root, "Gather")
	seq := c.nextSeq()
	size, rank := c.GroupSize(), c.gidx
	if c.rank != root {
		c.isendInternal(root, collTag(seq, 0), send)
		return nil
	}
	out := make([]T, size*len(send))
	copy(out[rank*len(send):], send)
	reqs := make(map[int]*Request, size-1)
	for g := 0; g < size; g++ {
		if g != rank {
			reqs[g] = c.irecvInternal(c.worldRank(g), collTag(seq, 0))
		}
	}
	for g, req := range reqs {
		payload, _ := c.collWait(req)
		copy(out[g*len(send):], payload.([]T))
		release(payload)
	}
	return out
}

// AllgatherVarLen collects variable-length buffers from every group member
// on every member, returned indexed by WORLD source rank (length Size();
// entries for ranks outside the collective group are nil). It is the
// building block for metadata exchanges whose sizes differ per rank.
func AllgatherVarLen[T any](c *Comm, send []T) [][]T {
	seq := c.nextSeq()
	size := c.GroupSize()
	out := make([][]T, c.size)
	out[c.rank] = append([]T(nil), send...)
	reqs := make([]*Request, 0, size-1)
	for g := 0; g < size; g++ {
		r := c.worldRank(g)
		if r == c.rank {
			continue
		}
		c.isendInternal(r, collTag(seq, 0), send)
		reqs = append(reqs, c.irecvInternal(r, collTag(seq, 0)))
	}
	for _, req := range reqs {
		payload, st := c.collWait(req)
		out[st.Source] = payload.([]T)
	}
	return out
}
