// Package xrand provides deterministic, splittable pseudo-random number
// streams for the mobile telephone model simulator.
//
// The simulator needs randomness with the same independence structure the
// paper's analysis assumes: every node makes "local independent coin flips"
// in every round, independent across nodes and across rounds. To get that —
// and to make parallel execution bit-identical to sequential execution — each
// (node, round) pair owns its own stream, derived by mixing a global seed
// with the node index and round number through SplitMix64. No stream ever
// observes another stream's consumption order.
//
// The generator behind each stream is xoshiro256**, seeded from SplitMix64
// output as its authors recommend.
package xrand

import "math/bits"

// SplitMix64 advances the SplitMix64 state and returns the next output.
// It is used both as a seeding mixer and as a cheap standalone generator.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix3 hashes three 64-bit values into one, suitable for deriving a stream
// seed from (seed, node, round).
func Mix3(a, b, c uint64) uint64 {
	s := a
	_ = SplitMix64(&s)
	s ^= b * 0x9e3779b97f4a7c15
	_ = SplitMix64(&s)
	s ^= c * 0xc2b2ae3d27d4eb4f
	return SplitMix64(&s)
}

// RNG is a xoshiro256** generator. The zero value is invalid; construct with
// New or Derive.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given 64-bit seed via SplitMix64.
func New(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Derive returns a generator for the stream identified by (seed, a, b) —
// typically (globalSeed, nodeIndex, round). Streams with distinct (a, b) are
// statistically independent.
func Derive(seed, a, b uint64) *RNG {
	return New(Mix3(seed, a, b))
}

// Seed resets the generator state from a 64-bit seed.
func (r *RNG) Seed(seed uint64) {
	s := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&s)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 of any seed yields
	// all-zero output with probability ~2^-256, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Reseed re-derives the state in place for the stream (seed, a, b), avoiding
// an allocation when a generator is reused across rounds.
func (r *RNG) Reseed(seed, a, b uint64) {
	r.Seed(Mix3(seed, a, b))
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// FillUint64s fills dst with the next len(dst) outputs of the stream —
// exactly the values len(dst) successive Uint64 calls would return, so
// batch and per-call consumption are interchangeable draw for draw. The
// generator state stays in locals across the whole batch, which is the
// point: one stream consumed in a tight loop (UID generation, bulk test
// workloads) runs at memory speed instead of paying a state load/store per
// draw. Never allocates.
func (r *RNG) FillUint64s(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded sampling.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Lemire's method: multiply-shift with rejection to remove bias.
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of [0, n) as a fresh slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)). It
// draws exactly the random values Perm(len(p)) would, so the two are
// interchangeable per stream — PermInto just reuses the caller's slice,
// for hot paths that generate a permutation every round. Its Fisher-Yates
// loop is Shuffle's, with the swap written in place of the callback.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
