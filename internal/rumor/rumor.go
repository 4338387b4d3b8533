// Package rumor implements the rumor spreading strategies of Section V of
// the paper, which double as subroutines and baselines for leader election:
//
//   - PushPull (b = 0): the classical strategy — flip a coin to send or
//     receive, senders target a uniformly random neighbor, connected pairs
//     trade the rumor. Corollary VI.6 (proved via the blind-gossip
//     analysis): completes in O((1/α)Δ²log²n) rounds in the mobile
//     telephone model.
//   - PPush (b = 1): "productive PUSH" — informed nodes advertise 0,
//     uninformed advertise 1; informed nodes propose only to uninformed
//     neighbors. Theorem V.2 bounds its per-cut progress by the
//     approximation factor f(r) = Δ^{1/r}·c·r·log n over r stable rounds.
package rumor

import (
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
)

// Spreader is implemented by both rumor protocols; it augments sim.Protocol
// with rumor status.
type Spreader interface {
	sim.Protocol
	Informed() bool
}

// AllInformed is the stop condition for rumor spreading runs.
func AllInformed(_ int, protocols []sim.Protocol) bool {
	for _, p := range protocols {
		if !p.(Spreader).Informed() {
			return false
		}
	}
	return true
}

// CountInformed returns the number of informed nodes.
func CountInformed(protocols []sim.Protocol) int {
	count := 0
	for _, p := range protocols {
		if p.(Spreader).Informed() {
			count++
		}
	}
	return count
}

// informedBit is the state every rumor strategy keeps — whether this node
// knows the rumor — with the callbacks that trade and learn it. Each
// strategy embeds it and adds only its Advertise and Decide.
type informedBit struct {
	informed bool
}

// Outgoing reports rumor possession in the auxiliary bits.
func (b *informedBit) Outgoing(*sim.Context, int32) sim.Message {
	aux := uint64(0)
	if b.informed {
		aux = 1
	}
	return sim.Message{Aux: aux}
}

// Deliver learns the rumor if the peer had it (PUSH and PULL both work
// because the exchange is bidirectional).
func (b *informedBit) Deliver(ctx *sim.Context, _ int32, msg sim.Message) {
	if msg.Aux == 1 && !b.informed {
		ctx.EmitTransition(obs.KindInformed, 0, 1)
		b.informed = true
	}
}

// Leader reports rumor status (1 = informed) so generic all-equal stop
// conditions also work for rumor runs seeded with at least one informed
// node.
func (b *informedBit) Leader() uint64 {
	if b.informed {
		return 1
	}
	return 0
}

// Informed reports whether this node knows the rumor.
func (b *informedBit) Informed() bool { return b.informed }

// PushPull is the b = 0 strategy (classical PUSH-PULL restricted to one
// connection per node per round).
type PushPull struct{ informedBit }

var _ Spreader = (*PushPull)(nil)

// NewPushPull creates one node's protocol; informed seeds the rumor.
func NewPushPull(informed bool) *PushPull { return &PushPull{informedBit{informed}} }

// Advertise returns 0: PUSH-PULL uses no tag bits.
func (p *PushPull) Advertise(*sim.Context) uint64 { return 0 }

// Decide flips a fair coin; senders pick a uniformly random neighbor.
func (p *PushPull) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Bool() {
		return 0, false
	}
	return ctx.RandomNeighbor()
}

// PPush is the b = 1 "productive PUSH" strategy from Section V.
type PPush struct{ informedBit }

var _ Spreader = (*PPush)(nil)

// NewPPush creates one node's protocol; informed seeds the rumor.
func NewPPush(informed bool) *PPush { return &PPush{informedBit{informed}} }

// Advertise: informed nodes advertise 0, uninformed advertise 1.
func (p *PPush) Advertise(*sim.Context) uint64 {
	if p.informed {
		return 0
	}
	return 1
}

// Decide: informed nodes propose to a uniformly random neighbor advertising
// 1 (an uninformed node); uninformed nodes only receive.
func (p *PPush) Decide(ctx *sim.Context) (int32, bool) {
	if !p.informed {
		return 0, false
	}
	return ctx.RandomNeighborWithTag(1)
}

// NewPushPullNetwork builds a PushPull network with the given informed set.
func NewPushPullNetwork(n int, informed map[int]bool) []sim.Protocol {
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = NewPushPull(informed[i])
	}
	return protocols
}

// NewPPushNetwork builds a PPush network with the given informed set.
func NewPPushNetwork(n int, informed map[int]bool) []sim.Protocol {
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = NewPPush(informed[i])
	}
	return protocols
}
