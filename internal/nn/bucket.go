package nn

import "fmt"

// DefaultGradBucketBytes is the default size cap for one gradient bucket
// (float32 elements × 4 bytes). It is deliberately small relative to DDP's
// 25 MB default because the proxy models are small: the cap should yield a
// handful of buckets per model so the first all-reduces launch while most
// of the backward pass is still ahead of them.
const DefaultGradBucketBytes = 32 << 10

// GradBucket is one gradient bucket: a contiguous run of parameter tensors
// covering params[FirstParam:LastParam] of the model's Params() order and
// the flat element range [Lo, Hi) of the Sequential.Grads layout. The bucket
// becomes ready — every one of its gradients written, never to change
// again this pass — the moment backward completes layer ReadyLayer (the
// earliest model layer contributing parameters to the bucket).
type GradBucket struct {
	FirstParam, LastParam int // param index range in Params() order
	Lo, Hi                int // flat element offsets in Sequential.Grads layout
	ReadyLayer            int // Layers index whose backward completion readies the bucket
}

// Elems returns the number of float32 elements in the bucket.
func (b GradBucket) Elems() int { return b.Hi - b.Lo }

// BucketPlan partitions a model's parameters into size-capped gradient
// buckets in reverse-layer order: Buckets[0] holds the deepest layers'
// parameters (the first gradients backward produces), so its all-reduce
// can launch while earlier layers are still computing. Because the grouped
// layers are contiguous, every bucket is a contiguous range of both the
// Params() order and the flat Sequential.Grads layout, and the buckets tile
// both exactly.
type BucketPlan struct {
	Buckets []GradBucket // launch order: reverse-layer
	NumEl   int          // total flat elements (== len(Sequential.Grads()))

	// ready[i] lists the bucket indices that become ready when backward
	// completes Layers[i]; nil for layers that close no bucket.
	ready [][]int
}

// NewBucketPlan builds the bucket partition for model with the given
// per-bucket byte cap (0 = DefaultGradBucketBytes). A single layer whose
// parameters exceed the cap gets a bucket of its own — buckets never split
// a parameter tensor, which is what keeps per-tensor optimizer state
// (LARS/LAMB trust ratios) and the flat layout aligned.
func NewBucketPlan(model *Sequential, capBytes int) *BucketPlan {
	if capBytes <= 0 {
		capBytes = DefaultGradBucketBytes
	}
	capElems := capBytes / 4
	if capElems < 1 {
		capElems = 1
	}

	// Per-layer spans over the forward Params()/Sequential.Grads layout.
	type span struct {
		layer               int
		firstParam, nParams int
		lo, elems           int
	}
	var spans []span
	paramIdx, off := 0, 0
	for li, l := range model.Layers {
		ps := l.Params()
		if len(ps) == 0 {
			continue
		}
		sp := span{layer: li, firstParam: paramIdx, nParams: len(ps), lo: off}
		for _, p := range ps {
			sp.elems += len(p.G)
		}
		paramIdx += len(ps)
		off += sp.elems
		spans = append(spans, sp)
	}

	plan := &BucketPlan{NumEl: off, ready: make([][]int, len(model.Layers))}
	// Walk layers in reverse, greedily filling buckets up to the cap.
	var cur *GradBucket
	flush := func() {
		if cur == nil {
			return
		}
		bi := len(plan.Buckets)
		plan.Buckets = append(plan.Buckets, *cur)
		plan.ready[cur.ReadyLayer] = append(plan.ready[cur.ReadyLayer], bi)
		cur = nil
	}
	for i := len(spans) - 1; i >= 0; i-- {
		sp := spans[i]
		if cur != nil && cur.Elems()+sp.elems > capElems {
			flush()
		}
		if cur == nil {
			cur = &GradBucket{
				FirstParam: sp.firstParam, LastParam: sp.firstParam + sp.nParams,
				Lo: sp.lo, Hi: sp.lo + sp.elems,
				ReadyLayer: sp.layer,
			}
			continue
		}
		// Prepend the earlier layer: buckets stay contiguous because we walk
		// reverse-adjacent spans.
		cur.FirstParam = sp.firstParam
		cur.Lo = sp.lo
		cur.ReadyLayer = sp.layer
	}
	flush()
	return plan
}

// ReadyAt returns the indices of the buckets that become ready when
// backward completes Layers[layer] (usually zero or one). The returned
// slice is owned by the plan; do not mutate it.
func (p *BucketPlan) ReadyAt(layer int) []int {
	if layer < 0 || layer >= len(p.ready) {
		return nil
	}
	return p.ready[layer]
}

// Validate checks the plan against a parameter set: buckets must tile both
// the param order and the flat layout exactly, in reverse order. It exists
// for tests and for defensive checks at trainer setup.
func (p *BucketPlan) Validate(params []Param) error {
	total := 0
	for _, pr := range params {
		total += len(pr.G)
	}
	if total != p.NumEl {
		return fmt.Errorf("nn: bucket plan covers %d elements, params have %d", p.NumEl, total)
	}
	nextParam, nextHi := len(params), p.NumEl
	for i, b := range p.Buckets {
		if b.LastParam != nextParam || b.Hi != nextHi {
			return fmt.Errorf("nn: bucket %d ends at (param %d, el %d), want (param %d, el %d)",
				i, b.LastParam, b.Hi, nextParam, nextHi)
		}
		if b.FirstParam >= b.LastParam || b.Lo >= b.Hi {
			return fmt.Errorf("nn: bucket %d is empty", i)
		}
		elems := 0
		for _, pr := range params[b.FirstParam:b.LastParam] {
			elems += len(pr.G)
		}
		if elems != b.Elems() {
			return fmt.Errorf("nn: bucket %d spans %d elements but its params hold %d", i, b.Elems(), elems)
		}
		nextParam, nextHi = b.FirstParam, b.Lo
	}
	if nextParam != 0 || nextHi != 0 {
		return fmt.Errorf("nn: buckets leave params[0:%d] (elements [0:%d)) uncovered", nextParam, nextHi)
	}
	return nil
}
