// Package core implements the paper's contribution: three leader election
// algorithms for the mobile telephone model.
//
//   - BlindGossip (Section VI): works with b = 0 and any τ >= 1. Stabilizes
//     in O((1/α)Δ²log²n) rounds (Theorem VI.1); Ω(Δ²/√α) on the line of
//     stars.
//   - BitConv (Section VII): works with b = 1 and synchronized starts.
//     Stabilizes in O((1/α)Δ^{1/τ̂}·τ̂·log⁵n) rounds, τ̂ = min(τ, log Δ)
//     (Theorem VII.2).
//   - AsyncBitConv (Section VIII): works with b = ⌈log k⌉ + 1 =
//     log log n + O(1) and asynchronous activations; self-stabilizing under
//     component merges. Stabilizes in O((1/α)Δ^{1/τ̂}·τ̂·log⁸n) rounds after
//     the last activation (Theorem VIII.2).
//
// All three treat UIDs as opaque comparable values (uint64 here) exchanged
// only through connections, per the problem statement in Section IV.
package core

import (
	"fmt"
	"math/bits"

	"mobiletel/internal/xrand"
)

// IDPair is the (UID, tag) pair of the bit convergence algorithms. Pairs are
// ordered by tag, with UID as tie-break; the network converges to the
// globally smallest pair.
type IDPair struct {
	UID uint64
	Tag uint64
}

// Less is the strict ordering on ID pairs: smaller tag first, then smaller
// UID.
func (p IDPair) Less(q IDPair) bool {
	if p.Tag != q.Tag {
		return p.Tag < q.Tag
	}
	return p.UID < q.UID
}

// Log2Ceil returns ⌈log₂ x⌉ for x >= 1.
func Log2Ceil(x int) int {
	if x < 1 {
		panic("core: Log2Ceil needs x >= 1")
	}
	if x == 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// UniqueUIDs generates n distinct pseudo-random 64-bit UIDs from seed. The
// algorithms treat UIDs as opaque black boxes; tests use this to avoid
// accidentally encoding node indices into UID structure.
func UniqueUIDs(n int, seed uint64) []uint64 {
	uids := make([]uint64, n)
	fillDistinct(uids, xrand.New(seed).FillUint64s)
	return uids
}

// fillDistinct fills out with the first len(out) distinct nonzero values
// that draw produces, in draw order. It draws in batches of exactly the
// shortfall, straight into the unfilled tail of out, and compacts the
// accepted values forward in place: a batch fill consumes the stream draw
// for draw like per-call Uint64 would, so UniqueUIDs is bit-identical to the
// historical one-call-per-draw loop. Every benchmark and experiment builds
// its UID space through here, so at paper-scale n this is what keeps
// set-up off the profile.
//
// Seen values live in an open-addressing set of at least 2·len(out) slots
// with linear probing, indexed by a value's top bits (UIDs are uniform
// draws, so their top bits are too); 0 marks an empty slot, which is why 0
// is never a UID.
func fillDistinct(out []uint64, draw func([]uint64)) {
	if len(out) == 0 {
		return
	}
	bitLen := bits.Len(uint(2*len(out) - 1))
	set := make([]uint64, 1<<bitLen)
	mask, shift := uint64(len(set)-1), uint(64-bitLen)
	filled := 0
	for filled < len(out) {
		batch := out[filled:]
		draw(batch)
	next:
		for _, u := range batch {
			if u == 0 {
				continue
			}
			i := u >> shift
			for set[i] != 0 {
				if set[i] == u {
					continue next
				}
				i = (i + 1) & mask
			}
			set[i] = u
			out[filled] = u
			filled++
		}
	}
}

// MinUID returns the smallest UID in the slice.
func MinUID(uids []uint64) uint64 {
	if len(uids) == 0 {
		panic("core: MinUID on empty slice")
	}
	best := uids[0]
	for _, u := range uids[1:] {
		if u < best {
			best = u
		}
	}
	return best
}

// MinPair returns the smallest ID pair.
func MinPair(pairs []IDPair) IDPair {
	if len(pairs) == 0 {
		panic("core: MinPair on empty slice")
	}
	best := pairs[0]
	for _, p := range pairs[1:] {
		if p.Less(best) {
			best = p
		}
	}
	return best
}

// AssignTags draws one ID tag per node uniformly from [1, 2^k), matching the
// paper's 1..n^β range with k = ⌈β·log n⌉ bits. Tags are not guaranteed
// unique (collisions happen with probability ~n²/2^k; the algorithms
// tolerate them via the UID tie-break, and experiments track the rate).
func AssignTags(n, k int, seed uint64) []uint64 {
	if k < 1 || k > 63 {
		panic(fmt.Sprintf("core: tag bit count %d outside [1, 63]", k))
	}
	rng := xrand.New(seed)
	tags := make([]uint64, n)
	span := (uint64(1) << uint(k)) - 1 // tags 1..2^k-1
	for i := range tags {
		tags[i] = 1 + rng.Uint64n(span)
	}
	return tags
}
