// Package gossip implements all-to-all rumor spreading (each node starts
// with one rumor; every node must learn every rumor) in the mobile
// telephone model — the first of the follow-on problems the paper's
// conclusion proposes ("gossip, consensus, and data aggregation").
//
// The protocol is the natural blind strategy under the model's O(1)-UIDs
// connection budget: fair-coin send/receive with uniform neighbor choice
// (exactly blind gossip's connection pattern, so Section VI's Θ((1/α)Δ²·
// polylog) connection machinery applies), and on each connection the two
// endpoints trade one rumor each, chosen uniformly from the rumors they
// know. An exchanged rumor is a single UID, respecting the budget.
//
// Known rumors are tracked in per-node bitsets; monotonicity (known sets
// only grow) and conservation (nobody learns a rumor that does not exist)
// are the tested invariants.
package gossip

import (
	"fmt"
	"math/bits"

	"mobiletel/internal/sim"
)

// Node is one gossip participant.
type Node struct {
	n     int
	self  int
	known []uint64 // bitset of rumor indices
	count int

	// buf backs the UID slice of outgoing messages: the engine delivers
	// each message before this node's next Outgoing, and Deliver only reads
	// values out of the slice.
	buf [1]uint64
}

var _ sim.Protocol = (*Node)(nil)

// NewNode creates participant self of n total, knowing only its own rumor.
func NewNode(n, self int) *Node {
	if n < 1 || self < 0 || self >= n {
		panic(fmt.Sprintf("gossip: bad node %d of %d", self, n))
	}
	node := &Node{n: n, self: self, known: make([]uint64, (n+63)/64)}
	node.learn(self)
	return node
}

// learn marks rumor idx known; returns true if it was new.
func (g *Node) learn(idx int) bool {
	word, bit := idx/64, uint(idx%64)
	if g.known[word]&(1<<bit) != 0 {
		return false
	}
	g.known[word] |= 1 << bit
	g.count++
	return true
}

// Knows reports whether the node knows rumor idx.
func (g *Node) Knows(idx int) bool {
	if idx < 0 || idx >= g.n {
		return false
	}
	return g.known[idx/64]&(1<<uint(idx%64)) != 0
}

// Count returns how many rumors the node knows.
func (g *Node) Count() int { return g.count }

// Advertise returns 0 (b = 0; the strategy is blind).
func (g *Node) Advertise(*sim.Context) uint64 { return 0 }

// Decide flips a fair coin; senders pick a uniformly random neighbor.
func (g *Node) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.RNG().Bool() {
		return 0, false
	}
	target, ok := ctx.RandomNeighbor()
	if !ok {
		return 0, false
	}
	return target, true
}

// Outgoing sends one uniformly random known rumor (1 UID: the rumor index).
func (g *Node) Outgoing(ctx *sim.Context, _ int32) sim.Message {
	// Select the k-th known rumor for uniform k.
	k := ctx.RNG().Intn(g.count)
	for word, w := range g.known {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		// Find the k-th set bit in w.
		for ; k > 0; k-- {
			w &= w - 1
		}
		g.buf[0] = uint64(word*64 + bits.TrailingZeros64(w))
		return sim.Message{UIDs: g.buf[:1]}
	}
	panic("gossip: inconsistent known-count")
}

// Deliver learns the peer's rumor.
func (g *Node) Deliver(_ *sim.Context, _ int32, msg sim.Message) {
	if len(msg.UIDs) != 1 {
		return
	}
	idx := int(msg.UIDs[0])
	if idx < 0 || idx >= g.n {
		panic(fmt.Sprintf("gossip: received rumor index %d outside [0,%d)", idx, g.n))
	}
	g.learn(idx)
}

// EndRound is a no-op.
func (g *Node) EndRound(*sim.Context) {}

// Leader reports the known-rumor count, so AllComplete can piggyback on the
// generic leader comparison in diagnostics.
func (g *Node) Leader() uint64 { return uint64(g.count) }

// AllComplete is the stop condition: every node knows all n rumors. It
// reads n from each node, so it also holds over a subset of the network
// (sim.UpOnly's up devices).
func AllComplete(_ int, protocols []sim.Protocol) bool {
	for _, p := range protocols {
		if g := p.(*Node); g.count != g.n {
			return false
		}
	}
	return true
}

// MinKnown returns the smallest known-rumor count over the network — the
// completion frontier.
func MinKnown(protocols []sim.Protocol) int {
	minCount := len(protocols)
	for _, p := range protocols {
		if c := p.(*Node).Count(); c < minCount {
			minCount = c
		}
	}
	return minCount
}

// NewNetwork builds an n-node gossip network.
func NewNetwork(n int) []sim.Protocol {
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = NewNode(n, i)
	}
	return protocols
}
