// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the shuffling library.
//
// The paper's exchange scheme (Algorithm 1) requires that every worker can
// regenerate the exact same random permutation of ranks for a given
// (seed, epoch, slot) triple without any communication. The standard library
// generators do not document cross-version stream stability, so this package
// implements xoshiro256** with a SplitMix64 seeder, both of which are fixed
// algorithms with published reference outputs.
package rng

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both to seed xoshiro256** and to mix stream identifiers.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; create one generator per goroutine (they are cheap).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// NewStream returns a generator for an independent stream identified by
// (seed, stream...). Two calls with the same arguments yield identical
// sequences; differing arguments yield (statistically) independent ones.
// This is how Algorithm 1 derives the shared per-epoch, per-slot rank
// permutations: every worker calls NewStream(seed, epoch, slot).
func NewStream(seed uint64, stream ...uint64) *Rand {
	st := seed
	for _, s := range stream {
		// Fold each stream component through the SplitMix64 mixer so that
		// nearby identifiers (epoch, epoch+1) produce unrelated states.
		st = splitMix64(&st) ^ (s * 0x9e3779b97f4a7c15)
	}
	return New(st)
}

// Seed resets the generator state from a 64-bit seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** requires a non-zero state; SplitMix64 of any seed is
	// astronomically unlikely to produce all zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// State returns the raw xoshiro256** state. Together with SetState it
// allows a generator's stream position to be checkpointed and later resumed
// bitwise: SetState(State()) followed by the same draw sequence yields the
// same outputs.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a generator to a previously captured State. An all-zero
// state is invalid for xoshiro256** and is mapped to the same guard value
// Seed uses, so a corrupted checkpoint cannot wedge the generator.
func (r *Rand) SetState(s [4]uint64) {
	r.s = s
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Uint64 returns the next 64 random bits. The state is worked on in locals,
// which keeps the method within the compiler's inlining budget: a loop that
// only walks the stream (data.Generate's chunk boundaries) then costs no
// call per draw.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	r.s = [4]uint64{s0, s1, s2, s3}
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard normal variate (Box–Muller; polar form is
// avoided to keep the stream consumption deterministic at two draws).
func (r *Rand) NormFloat64() float64 {
	// Box–Muller: u1 in (0,1] so that Log is finite.
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormFloat32 returns a standard normal variate as float32.
func (r *Rand) NormFloat32() float32 { return float32(r.NormFloat64()) }

// Perm returns a random permutation of [0, n) via Fisher–Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs an in-place Fisher–Yates shuffle of n elements using the
// provided swap function, matching the semantics of math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// PermInto fills dst (len n) with a random permutation of [0, n), avoiding
// an allocation in hot loops such as the per-slot destination permutations.
func (r *Rand) PermInto(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}
