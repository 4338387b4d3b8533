package rumor

import "mobiletel/internal/sim"

// Push is the PUSH-only baseline (b = 0): informed nodes propose to a
// uniformly random neighbor every round; uninformed nodes only receive.
// In the classical telephone model PUSH alone is exponentially slower than
// PUSH-PULL on star-like graphs (an informed hub can push to only one leaf
// per round — that bottleneck is the whole point of the one-connection
// restriction the mobile telephone model makes explicit).
type Push struct{ informedBit }

var _ Spreader = (*Push)(nil)

// NewPush creates one node's PUSH protocol; informed seeds the rumor.
func NewPush(informed bool) *Push { return &Push{informedBit{informed}} }

// Advertise returns 0 (b = 0).
func (p *Push) Advertise(*sim.Context) uint64 { return 0 }

// Decide: informed nodes always push; uninformed always receive.
func (p *Push) Decide(ctx *sim.Context) (int32, bool) {
	if !p.informed {
		return 0, false
	}
	return ctx.RandomNeighbor()
}

// Pull is the PULL-only baseline (b = 0): uninformed nodes propose to a
// uniformly random neighbor every round; informed nodes only receive.
// Symmetric to Push: a lone informed leaf is found only when some neighbor
// happens to pull from it.
type Pull struct{ informedBit }

var _ Spreader = (*Pull)(nil)

// NewPull creates one node's PULL protocol; informed seeds the rumor.
func NewPull(informed bool) *Pull { return &Pull{informedBit{informed}} }

// Advertise returns 0 (b = 0).
func (p *Pull) Advertise(*sim.Context) uint64 { return 0 }

// Decide: uninformed nodes always pull; informed always receive.
func (p *Pull) Decide(ctx *sim.Context) (int32, bool) {
	if p.informed {
		return 0, false
	}
	return ctx.RandomNeighbor()
}

// NewPushNetwork builds a PUSH-only network with the given informed set.
func NewPushNetwork(n int, informed map[int]bool) []sim.Protocol {
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = NewPush(informed[i])
	}
	return protocols
}

// NewPullNetwork builds a PULL-only network with the given informed set.
func NewPullNetwork(n int, informed map[int]bool) []sim.Protocol {
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = NewPull(informed[i])
	}
	return protocols
}
