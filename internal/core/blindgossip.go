package core

import (
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
)

// BlindGossip is the Section VI algorithm for b = 0: each round, flip a fair
// coin to send or receive; senders propose to a uniformly random neighbor;
// a connected pair trades the smallest UIDs each has seen, and both adopt
// the minimum as their leader.
//
// Theorem VI.1: stabilizes in O((1/α)Δ²log²n) rounds for any τ >= 1. The
// same protocol run on a rumor (Corollary VI.6) is classical PUSH-PULL.
type BlindGossip struct {
	uid  uint64
	best uint64
	// buf backs the UID slice of outgoing messages so the steady-state round
	// loop allocates nothing. Safe to reuse: a node has at most one MTM
	// connection per round, and in classical mode the engine delivers each
	// message before asking the same protocol for the next one; receivers
	// (Deliver) only read values out of the slice.
	buf [1]uint64
}

var (
	_ sim.Protocol    = (*BlindGossip)(nil)
	_ sim.Corruptible = (*BlindGossip)(nil)
)

// NewBlindGossip returns the protocol instance for one node with the given
// UID. Leader is initialized to the node's own UID per Section IV.
func NewBlindGossip(uid uint64) *BlindGossip {
	p := new(BlindGossip)
	p.init(uid)
	return p
}

// init sets p to the initial state of the node with the given UID.
func (p *BlindGossip) init(uid uint64) { *p = BlindGossip{uid: uid, best: uid} }

// Advertise returns 0: blind gossip uses no advertisement bits (b = 0).
func (p *BlindGossip) Advertise(*sim.Context) uint64 { return 0 }

// Decide flips a fair coin; senders target a uniformly random neighbor.
func (p *BlindGossip) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Bool() {
		return 0, false
	}
	return ctx.RandomNeighbor()
}

// Outgoing sends the smallest UID seen so far.
func (p *BlindGossip) Outgoing(*sim.Context, int32) sim.Message {
	p.buf[0] = p.best
	return sim.Message{UIDs: p.buf[:1]}
}

// Deliver adopts the peer's UID if smaller.
func (p *BlindGossip) Deliver(ctx *sim.Context, _ int32, msg sim.Message) {
	if len(msg.UIDs) == 1 && msg.UIDs[0] < p.best {
		ctx.EmitTransition(obs.KindLeader, p.best, msg.UIDs[0])
		p.best = msg.UIDs[0]
	}
}

// Leader returns the current leader variable: the smallest UID seen.
func (p *BlindGossip) Leader() uint64 { return p.best }

// CorruptState implements sim.Corruptible: the node forgets every UID it
// has seen and restarts from its own, exactly as a fresh activation.
func (p *BlindGossip) CorruptState() { p.best = p.uid }

// UID returns the node's own immutable UID.
func (p *BlindGossip) UID() uint64 { return p.uid }

// NewBlindGossipNetwork builds one BlindGossip protocol per node for the
// given UID assignment, all in one slab: two allocations for any n.
func NewBlindGossipNetwork(uids []uint64) []sim.Protocol {
	slab := make([]BlindGossip, len(uids))
	protocols := make([]sim.Protocol, len(uids))
	for i, uid := range uids {
		slab[i].init(uid)
		protocols[i] = &slab[i]
	}
	return protocols
}
