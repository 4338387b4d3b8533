// Package consensus builds single-value consensus on top of the paper's
// leader election primitive — the application its introduction motivates
// ("a key primitive that supports ... event ordering, agreement, and
// synchronization") and its conclusion lists as future work for the model.
//
// The construction piggybacks each node's proposal value on the bit
// convergence ID pairs: whenever a node adopts a smaller ID pair it also
// adopts the value proposed by that pair's owner. When the network
// stabilizes to one leader, every node holds that leader's proposal.
// Agreement and validity are therefore inherited directly from leader
// election's stabilization guarantee:
//
//   - Validity: the decided value is the input of some node (the leader).
//   - Agreement: once stabilized, all nodes hold the same value.
//   - Termination: with probability 1, within the leader election bound
//     (Theorem VIII.2 for the asynchronous-activation variant used here).
//
// The protocol runs the non-synchronized bit convergence algorithm
// (Section VIII), so it tolerates asynchronous activations and component
// merges like its substrate.
package consensus

import (
	"mobiletel/internal/core"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// Proposer is a consensus node: an AsyncBitConv leader election machine
// carrying a proposal value with its smallest ID pair. It runs
// AsyncBitConv's advertise, decide and end-of-round rules unchanged; only
// the exchange, which carries the value, and the state reset differ.
type Proposer struct {
	core.AsyncBitConv

	proposal uint64 // this node's own input
	value    uint64 // proposal of the current smallest pair's owner

	// buf backs the UID slice of outgoing messages: the engine delivers
	// each message before this node's next Outgoing, and Deliver only reads
	// values out of the slice.
	buf [2]uint64
}

var (
	_ sim.Protocol    = (*Proposer)(nil)
	_ sim.Corruptible = (*Proposer)(nil)
)

// NewProposer creates a consensus node with the given UID, random tag, and
// proposal value.
func NewProposer(uid, tag, value uint64, params core.BitConvParams) *Proposer {
	return &Proposer{AsyncBitConv: *core.NewAsyncBitConv(uid, tag, params), proposal: value, value: value}
}

// Outgoing sends (pair, proposal-of-pair-owner). The UID and the value are
// the two UID-sized payload slots; the tag travels in the auxiliary bits.
func (p *Proposer) Outgoing(*sim.Context, int32) sim.Message {
	best := p.Best()
	p.buf = [2]uint64{best.UID, p.value}
	return sim.Message{UIDs: p.buf[:], Aux: best.Tag}
}

// Deliver adopts the peer's pair and value together when the pair is
// smaller.
func (p *Proposer) Deliver(ctx *sim.Context, _ int32, msg sim.Message) {
	if len(msg.UIDs) != 2 {
		return
	}
	if p.Adopt(ctx, core.IDPair{UID: msg.UIDs[0], Tag: msg.Aux}) {
		p.value = msg.UIDs[1]
	}
}

// CorruptState implements sim.Corruptible: the node reverts to its initial
// state, its own pair and its own proposal together, so a reset node never
// carries a value that is not its pair owner's.
func (p *Proposer) CorruptState(rng *xrand.RNG) {
	p.AsyncBitConv.CorruptState(rng)
	p.value = p.proposal
}

// Value returns the proposal currently associated with the node's smallest
// pair — after stabilization, the decided consensus value.
func (p *Proposer) Value() uint64 { return p.value }

// AllAgree is the consensus stop condition: every node holds the same
// (leader, value).
func AllAgree(_ int, protocols []sim.Protocol) bool {
	first := protocols[0].(*Proposer)
	for _, p := range protocols[1:] {
		q := p.(*Proposer)
		if q.Best() != first.Best() || q.value != first.value {
			return false
		}
	}
	return true
}

// NewNetwork builds a consensus network: one Proposer per node with the
// given proposal values. UIDs and tags are drawn from seed. It returns the
// protocols and the tag assignment.
func NewNetwork(values []uint64, params core.BitConvParams, seed uint64) ([]sim.Protocol, []uint64) {
	n := len(values)
	uids := core.UniqueUIDs(n, xrand.Mix3(seed, 0xc05, 0))
	tags := core.AssignTags(n, params.K, xrand.Mix3(seed, 0xc05, 1))
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = NewProposer(uids[i], tags[i], values[i], params)
	}
	return protocols, tags
}

// TagBits returns the advertisement width the consensus protocol needs
// (same as AsyncBitConv).
func TagBits(params core.BitConvParams) int { return core.TagBitsNeeded(params) }
