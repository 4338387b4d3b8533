package core

import (
	"fmt"

	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// AsyncBitConv is the Section VIII non-synchronized bit convergence
// algorithm. It removes the synchronized-start assumption of BitConv at the
// cost of a slightly larger advertisement: b = ⌈log k⌉ + 1 bits.
//
// Each node partitions its *local* rounds (counted from its own activation)
// into groups of GroupLen rounds. At each local group start it picks a tag
// bit position i ∈ [1, k] uniformly at random and, for the whole group,
// advertises the pair (i, value of bit i in the tag of its smallest ID
// pair), encoded as (i-1)*2 + bit. Nodes advertising a 0 bit for position i
// propose to uniformly random neighbors advertising a 1 bit for the *same*
// position; everyone else receives. Connected pairs trade smallest ID pairs
// and adopt improvements immediately (no phase boundaries), which is what
// makes the algorithm self-stabilizing under component merges.
type AsyncBitConv struct {
	params BitConvParams
	self   IDPair

	best IDPair

	localRound int // rounds completed since activation
	position   int // 1-based tag bit position for the current group

	// buf backs the UID slice of outgoing messages, as in BlindGossip.
	buf [1]uint64
}

var (
	_ sim.Protocol    = (*AsyncBitConv)(nil)
	_ sim.Corruptible = (*AsyncBitConv)(nil)
)

// NewAsyncBitConv creates the protocol instance for one node.
func NewAsyncBitConv(uid, tag uint64, params BitConvParams) *AsyncBitConv {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if tag == 0 || tag >= uint64(1)<<uint(params.K) {
		panic(fmt.Sprintf("core: tag %d outside [1, 2^%d)", tag, params.K))
	}
	pair := IDPair{UID: uid, Tag: tag}
	return &AsyncBitConv{params: params, self: pair, best: pair}
}

// TagBitsNeeded returns the advertisement width the algorithm requires for
// the given parameters: ⌈log₂ k⌉ position bits plus one value bit.
func TagBitsNeeded(params BitConvParams) int {
	return Log2Ceil(params.K) + 1
}

// bitValue returns bit `position` (1-based, most significant first) of the
// node's current smallest tag.
func (p *AsyncBitConv) bitValue() uint64 {
	return (p.best.Tag >> uint(p.params.K-p.position)) & 1
}

// encodeTag packs (position, bit) into the advertised tag value.
func encodeTag(position int, bit uint64) uint64 {
	return uint64(position-1)*2 + bit
}

// decodeTag unpacks an advertised tag value.
func decodeTag(tag uint64) (position int, bit uint64) {
	return int(tag/2) + 1, tag & 1
}

// Advertise starts a new local group when due (picking a fresh random
// position) and returns the encoded (position, bit) advertisement.
func (p *AsyncBitConv) Advertise(ctx *sim.Context) uint64 {
	if p.localRound%p.params.GroupLen == 0 {
		next := 1 + ctx.RNG().Intn(p.params.K)
		if next != p.position {
			ctx.EmitTransition(obs.KindPosition, uint64(p.position), uint64(next))
			p.position = next
		}
	}
	return encodeTag(p.position, p.bitValue())
}

// Decide: 0-bit advertisers propose to a uniformly random neighbor
// advertising (same position, bit 1); everyone else receives.
func (p *AsyncBitConv) Decide(ctx *sim.Context) (int32, bool) {
	if p.bitValue() != 0 {
		return 0, false
	}
	target, ok := ctx.RandomNeighborWithTag(encodeTag(p.position, 1))
	if !ok {
		return 0, false
	}
	return target, true
}

// Outgoing sends the node's current smallest ID pair.
func (p *AsyncBitConv) Outgoing(*sim.Context, int32) sim.Message {
	p.buf[0] = p.best.UID
	return sim.Message{UIDs: p.buf[:1], Aux: p.best.Tag}
}

// Deliver adopts the peer's pair immediately if smaller.
func (p *AsyncBitConv) Deliver(ctx *sim.Context, _ int32, msg sim.Message) {
	if len(msg.UIDs) != 1 {
		return
	}
	p.Adopt(ctx, IDPair{UID: msg.UIDs[0], Tag: msg.Aux})
}

// Adopt makes got the node's smallest ID pair if it is smaller than the
// current one, and reports whether it did.
func (p *AsyncBitConv) Adopt(ctx *sim.Context, got IDPair) bool {
	if !got.Less(p.best) {
		return false
	}
	if got.UID != p.best.UID {
		ctx.EmitTransition(obs.KindLeader, p.best.UID, got.UID)
	}
	p.best = got
	return true
}

// EndRound advances the local round counter (activation-relative time).
func (p *AsyncBitConv) EndRound(*sim.Context) { p.localRound++ }

// Leader returns the UID of the node's current smallest ID pair.
func (p *AsyncBitConv) Leader() uint64 { return p.best.UID }

// CorruptState implements sim.Corruptible: the node reverts to its exact
// initial state — own pair, local clock zeroed, no group position (the next
// Advertise starts a fresh local group and draws one). This is the
// Section VIII adversary: the algorithm's self-stabilization claim is that
// it converges from any such reset, which the R-series experiments measure.
func (p *AsyncBitConv) CorruptState(*xrand.RNG) {
	p.best, p.localRound, p.position = p.self, 0, 0
}

// Best returns the node's current smallest ID pair (for tests/trace).
func (p *AsyncBitConv) Best() IDPair { return p.best }

// NewAsyncBitConvNetwork builds one AsyncBitConv protocol per node, drawing
// tags from seed. It returns the protocols and the tag assignment.
func NewAsyncBitConvNetwork(uids []uint64, params BitConvParams, seed uint64) ([]sim.Protocol, []uint64) {
	tags := AssignTags(len(uids), params.K, xrand.Mix3(seed, 0xa5c, 0))
	protocols := make([]sim.Protocol, len(uids))
	for i, uid := range uids {
		protocols[i] = NewAsyncBitConv(uid, tags[i], params)
	}
	return protocols, tags
}
