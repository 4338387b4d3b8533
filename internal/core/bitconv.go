package core

import (
	"fmt"

	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// BitConvParams fixes the shared structure of a bit convergence execution.
// All nodes must agree on these values (they are global constants derived
// from N and Δ, both of which the model provides to every node).
type BitConvParams struct {
	// K is the ID tag length in bits (the paper's k = ⌈β·log n⌉).
	K int
	// GroupLen is the number of rounds per group (the paper's 2·log Δ).
	GroupLen int
}

// PhaseLen returns the rounds per phase: k groups of GroupLen rounds.
func (p BitConvParams) PhaseLen() int { return p.K * p.GroupLen }

// Validate checks structural sanity.
func (p BitConvParams) Validate() error {
	if p.K < 1 || p.K > 63 {
		return fmt.Errorf("core: K=%d outside [1, 63]", p.K)
	}
	if p.GroupLen < 1 {
		return fmt.Errorf("core: GroupLen=%d < 1", p.GroupLen)
	}
	return nil
}

// DefaultBitConvParams derives the paper's parameters: k = ⌈β·log₂ N⌉ with
// β = 2 (making tag collisions unlikely at n² scale) and group length
// 2·⌈log₂ Δ⌉ (so every group contains a τ̂-stable stretch, Lemma VII.5).
func DefaultBitConvParams(n, maxDegree int) BitConvParams {
	k := 2 * Log2Ceil(n+1)
	if k < 1 {
		k = 1
	}
	if k > 63 {
		k = 63
	}
	groupLen := 2 * Log2Ceil(maxDegree+1)
	if groupLen < 2 {
		groupLen = 2
	}
	return BitConvParams{K: k, GroupLen: groupLen}
}

// BitConv is the Section VII bit convergence leader election algorithm for
// b = 1 with synchronized starts.
//
// Rounds are partitioned into groups of GroupLen rounds and groups into
// phases of K groups. At each phase start a node adopts the smallest ID
// pair it has encountered and publishes its UID as leader. During group i
// of a phase, the node advertises bit i (most-significant first) of its
// smallest pair's tag and runs PPUSH: 0-bit nodes propose to uniformly
// random 1-bit neighbors; connected pairs trade smallest pairs. Received
// pairs take effect only at the next phase boundary.
type BitConv struct {
	params BitConvParams
	self   IDPair

	best    IDPair // smallest pair adopted at the last phase start
	pending IDPair // smallest pair seen so far (takes effect next phase)
	leader  uint64

	// lastBit is the tag bit Advertise returned this round, which Decide
	// acts on; Advertise emits a KindBit transition when it flips (-1
	// before the first round).
	lastBit int8

	// buf backs the UID slice of outgoing messages, as in BlindGossip.
	buf [1]uint64
}

var (
	_ sim.Protocol    = (*BitConv)(nil)
	_ sim.Corruptible = (*BitConv)(nil)
)

// NewBitConv creates the protocol instance for one node.
func NewBitConv(uid, tag uint64, params BitConvParams) *BitConv {
	p := new(BitConv)
	p.init(uid, tag, params)
	return p
}

// init validates the node's parameters and tag and sets p to the node's
// initial state.
func (p *BitConv) init(uid, tag uint64, params BitConvParams) {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if tag == 0 || tag >= uint64(1)<<uint(params.K) {
		panic(fmt.Sprintf("core: tag %d outside [1, 2^%d)", tag, params.K))
	}
	pair := IDPair{UID: uid, Tag: tag}
	*p = BitConv{params: params, self: pair, best: pair, pending: pair, leader: uid, lastBit: -1}
}

// phasePosition decomposes a 1-based global round into its position inside
// the phase structure: the 1-based group index and whether this round starts
// a phase.
func (p *BitConv) phasePosition(round int) (group int, phaseStart bool) {
	idx := (round - 1) % p.params.PhaseLen()
	return idx/p.params.GroupLen + 1, idx == 0
}

// groupBit returns the advertised bit for the given 1-based group index:
// bit 1 is the most significant of the K tag bits.
func (p *BitConv) groupBit(group int) uint64 {
	return (p.best.Tag >> uint(p.params.K-group)) & 1
}

// Advertise performs the phase-boundary adoption (the first event of a
// round) and returns the group's tag bit.
func (p *BitConv) Advertise(ctx *sim.Context) uint64 {
	group, phaseStart := p.phasePosition(ctx.Round)
	if phaseStart && p.pending != p.best {
		ctx.EmitTransition(obs.KindPhase, p.best.UID, p.pending.UID)
		ctx.EmitTransition(obs.KindLeader, p.leader, p.pending.UID)
		p.best = p.pending
		p.leader = p.best.UID
	}
	bit := p.groupBit(group)
	if p.lastBit >= 0 && uint64(p.lastBit) != bit {
		ctx.EmitTransition(obs.KindBit, uint64(p.lastBit), bit)
	}
	p.lastBit = int8(bit)
	return bit
}

// Decide runs the PPUSH step: 0-bit nodes propose to a uniformly random
// neighbor advertising 1; everyone else receives. The bit is the one
// Advertise returned this round.
func (p *BitConv) Decide(ctx *sim.Context) (int32, bool) {
	if p.lastBit != 0 {
		return 0, false
	}
	target, ok := ctx.RandomNeighborWithTag(1)
	if !ok {
		return 0, false
	}
	return target, true
}

// Outgoing sends the node's current smallest ID pair.
func (p *BitConv) Outgoing(*sim.Context, int32) sim.Message {
	p.buf[0] = p.best.UID
	return sim.Message{UIDs: p.buf[:1], Aux: p.best.Tag}
}

// Deliver records the peer's pair into the pending minimum.
func (p *BitConv) Deliver(_ *sim.Context, _ int32, msg sim.Message) {
	if len(msg.UIDs) != 1 {
		return
	}
	got := IDPair{UID: msg.UIDs[0], Tag: msg.Aux}
	if got.Less(p.pending) {
		p.pending = got
	}
}

// Leader returns the leader variable, updated at phase boundaries.
func (p *BitConv) Leader() uint64 { return p.leader }

// CorruptState implements sim.Corruptible: the node reverts to its initial
// state (own pair adopted and pending, itself as leader), as if it had just
// started. Phase positions are global-round derived, so a corrupted node
// stays phase-aligned — what BitConv's synchronized-start assumption needs.
func (p *BitConv) CorruptState() {
	p.best, p.pending, p.leader, p.lastBit = p.self, p.self, p.self.UID, -1
}

// Best returns the node's current smallest ID pair (for tests/trace).
func (p *BitConv) Best() IDPair { return p.best }

// NewBitConvNetwork builds one BitConv protocol per node: UIDs are supplied,
// tags are drawn from seed via AssignTags, parameters via params.
// It returns the protocols and the tag assignment (for verification). The
// protocols live in one slab: two allocations for any n, besides the tags.
func NewBitConvNetwork(uids []uint64, params BitConvParams, seed uint64) ([]sim.Protocol, []uint64) {
	tags := AssignTags(len(uids), params.K, xrand.Mix3(seed, 0xb17, 0))
	slab := make([]BitConv, len(uids))
	protocols := make([]sim.Protocol, len(uids))
	for i, uid := range uids {
		slab[i].init(uid, tags[i], params)
		protocols[i] = &slab[i]
	}
	return protocols, tags
}
