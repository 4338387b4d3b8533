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

// golden is SplitMix64's state increment γ, an odd constant.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 advances the SplitMix64 state and returns the next output.
// It is used both as a seeding mixer and as a cheap standalone generator.
func SplitMix64(state *uint64) uint64 {
	*state += golden
	return mix(*state)
}

// mix is SplitMix64's output function. Each of its steps (an xor-shift or
// a multiplication by an odd constant) is invertible, so mix is a
// bijection of uint64, and its only zero is mix(0).
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scramble is xoshiro256**'s output function: an output depends on the
// state word s1 alone.
func scramble(s1 uint64) uint64 { return bits.RotateLeft64(s1*5, 7) * 9 }

// Mix3 hashes three 64-bit values into one, suitable for deriving a stream
// seed from (seed, node, round). It steps a SplitMix64 state started at a
// three times, folding b and c into it after the first and second step
// and returning the third output; the first two outputs are unused, so
// those steps only add γ.
func Mix3(a, b, c uint64) uint64 {
	s := (a + golden) ^ b*golden
	s = (s + golden) ^ c*0xc2b2ae3d27d4eb4f
	return mix(s + golden)
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

// Seed resets the generator state from a 64-bit seed: word i is
// SplitMix64's output i, mix(seed + (i+1)γ).
//
// xoshiro256** requires a state that is not all zero, and this one never
// is. mix is zero only at 0, and the four inputs seed + γ … seed + 4γ are
// distinct, because γ is odd and so iγ ≢ jγ (mod 2^64) for i ≠ j in 1..4.
// So at most one word is zero: the seeds −γ … −4γ each zero exactly one.
func (r *RNG) Seed(seed uint64) {
	s := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&s)
	}
}

// Reseed re-derives the state in place for the stream (seed, a, b), avoiding
// an allocation when a generator is reused across rounds.
func (r *RNG) Reseed(seed, a, b uint64) {
	r.Seed(Mix3(seed, a, b))
}

// At returns output k of New(seed), the value its (k+1)-th Uint64 call
// returns, as a pure function of (seed, k). The first two outputs need
// part of the state only: output 0 is scramble(s1), and output 1 the
// scramble of the once-stepped s1, which is s0 ^ s1 ^ s2. They cost one
// and three SplitMix64 mixes, against four for a full seeding. A later
// output seeds a generator and steps it k times.
//
//mtmlint:hotpath
func At(seed uint64, k uint32) uint64 {
	x0 := seed + golden // state word i is mix(x0 + iγ)
	x1 := x0 + golden
	switch k {
	case 0:
		return scramble(mix(x1))
	case 1:
		return scramble(mix(x0) ^ mix(x1) ^ mix(x1+golden))
	}
	var r RNG
	r.Seed(seed)
	for ; k > 0; k-- {
		r.Uint64()
	}
	return r.Uint64()
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := scramble(r.s[1])
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
		dst[i] = scramble(s1)
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
	for {
		if v, ok := Bounded(r.Uint64(), n); ok {
			return v
		}
	}
}

// Bounded maps the 64-bit draw x into [0, n) by Lemire's multiply-shift
// with rejection: v is the high word of x·n, and ok is false when the low
// word falls below 2^64 mod n, the biased sliver whose draw must be thrown
// away and redrawn. Every bounded draw, RNG.Uint64n's and the simulator's
// per-node draws alike, applies this one rule, so the same draws give the
// same value through either. n must be nonzero.
//
//mtmlint:hotpath
func Bounded(x, n uint64) (v uint64, ok bool) {
	hi, lo := bits.Mul64(x, n)
	// -n % n is 2^64 mod n, which is below n: the division runs only in
	// the rare case the low word is.
	return hi, lo >= n || lo >= -n%n
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
