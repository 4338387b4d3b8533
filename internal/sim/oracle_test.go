package sim

import (
	"fmt"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/obs"
	"mobiletel/internal/xrand"
)

// RunOracle executes rounds 1..rounds of the mobile telephone model with a
// deliberately naive executor: the reference the engine is checked against
// (TestEngineMatchesOracle, FuzzEngineMatchesOracle). It is DESIGN §3 written
// as plain ascending loops, one per step, with an inbox slice per receiver
// and every node's (seed, node, round) stream derived eagerly at round
// start. It asks cfg.Faults the same questions the engine does and emits
// its own mtmtrace/v1 events into cfg.Sink, but calls none of the engine's
// phase, dispatch, chunking or counting-sort code. A throwaway Engine value
// only holds the node streams that Context.RNG serves.
//
// It honors Seed, TagBits, Activations, Accept, Classical, Faults and Sink,
// and enforces the MaxUIDs budget; Workers, Observer, Check and Profiler do
// not change a model execution. It returns every round's statistics and
// each node's lifetime connection count.
func RunOracle(sched dyngraph.Schedule, protocols []Protocol, cfg Config, rounds int) ([]RoundStats, []int64) {
	n := sched.N()
	o := &oracle{
		cfg:       cfg,
		protocols: protocols,
		streams:   Engine{cfg: cfg, rngs: make([]xrand.RNG, n), rngLive: make([]bool, n)},
		active:    make([]bool, n),
		tags:      make([]uint64, n),
		action:    make([]int32, n),
		inbox:     make([][]int32, n),
		partner:   make([]int32, n),
		load:      make([]int64, n),
	}
	if cfg.Sink != nil {
		cfg.Sink.Begin(obs.Header{Seed: cfg.Seed, Schedule: sched.Name(), N: n,
			TagBits: cfg.TagBits, Classical: cfg.Classical})
	}
	stats := make([]RoundStats, 0, rounds)
	for r := 1; r <= rounds; r++ {
		stats = append(stats, o.round(r, sched.GraphAt(r)))
	}
	if cfg.Sink != nil {
		cfg.Sink.End()
	}
	return stats, o.load
}

type oracle struct {
	cfg       Config
	protocols []Protocol
	streams   Engine

	// Per-round state, rebuilt by every round.
	r       int
	g       *graph.Graph
	active  []bool
	tags    []uint64
	action  []int32 // proposal target, actionReceive or actionInactive
	inbox   [][]int32
	partner []int32

	load []int64 // lifetime connections per node
}

func (o *oracle) emit(ev obs.Event) {
	if o.cfg.Sink != nil {
		o.cfg.Sink.Event(ev)
	}
}

// ctx is the scan view node u gets in this round's callbacks.
func (o *oracle) ctx(u int32) *Context {
	return &Context{Round: o.r, Node: u, e: &o.streams, g: o.g, tags: o.tags, act: o.active, sink: o.cfg.Sink}
}

func (o *oracle) round(r int, g *graph.Graph) RoundStats {
	o.r, o.g = r, g
	n := len(o.active)
	in := o.cfg.Faults

	// Step 1: the active set. A node takes part once it has activated and
	// while it is up.
	var down []bool
	if in != nil {
		in.BeginRound(r)
		down = in.DownMask()
	}
	activeCount := 0
	for u := 0; u < n; u++ {
		o.active[u] = (o.cfg.Activations == nil || o.cfg.Activations[u] <= r) && (down == nil || !down[u])
		if o.active[u] {
			activeCount++
		}
	}
	// Every node's (seed, node, round) stream, derived before anyone draws.
	o.streams.curRound = r
	for u := 0; u < n; u++ {
		o.streams.rngs[u].Reseed(o.cfg.Seed, uint64(u), uint64(r))
		o.streams.rngLive[u] = true
	}
	o.emit(obs.Event{Type: obs.TypeRoundStart, Round: r, Node: obs.NoNode, Peer: obs.NoNode, A: uint64(activeCount)})
	if in != nil {
		o.roundStartFaults()
	}

	// Step 2: advertise.
	for u := 0; u < n; u++ {
		if !o.active[u] {
			o.tags[u], o.action[u] = 0, actionInactive
			continue
		}
		tag := o.protocols[u].Advertise(o.ctx(int32(u)))
		if o.cfg.TagBits < 64 && tag>>uint(o.cfg.TagBits) != 0 {
			panic(fmt.Sprintf("oracle: node %d advertised tag %d exceeding b=%d bits", u, tag, o.cfg.TagBits))
		}
		o.tags[u] = tag
	}
	if in != nil {
		for u := 0; u < n; u++ {
			if !o.active[u] {
				continue
			}
			if tag, flipped := in.FlipTag(int32(u), r, o.cfg.TagBits, o.tags[u]); flipped {
				o.emit(obs.Event{Type: obs.TypeFault, Kind: obs.KindTagFlip, Round: r,
					Node: int32(u), Peer: obs.NoNode, A: o.tags[u], B: tag})
				o.tags[u] = tag
			}
		}
	}

	// Step 3: decide.
	for u := 0; u < n; u++ {
		if !o.active[u] {
			continue
		}
		t, propose := o.protocols[u].Decide(o.ctx(int32(u)))
		if !propose {
			o.action[u] = actionReceive
			continue
		}
		if t < 0 || int(t) >= n || !g.HasEdge(u, int(t)) || !o.active[t] {
			panic(fmt.Sprintf("oracle: node %d proposed to %d, not an active neighbor, in round %d", u, t, r))
		}
		o.action[u] = t
	}

	s := RoundStats{Round: r, ActiveNodes: activeCount}
	if o.cfg.Classical {
		o.classical(&s)
	} else {
		o.acceptAndExchange(&s)
	}

	for u := 0; u < n; u++ {
		if o.active[u] {
			o.protocols[u].EndRound(o.ctx(int32(u)))
		}
	}
	o.emit(obs.Event{Type: obs.TypeRoundEnd, Round: r, Node: int32(s.Connections), Peer: int32(s.Rejects),
		A: uint64(s.Proposals), B: uint64(s.Connections)})
	return s
}

// roundStartFaults reports this round's crashes and applies the state
// resets: crash-with-amnesia recoveries, then corruption bursts of the
// nodes active this round.
func (o *oracle) roundStartFaults() {
	in, r := o.cfg.Faults, o.r
	for _, u := range in.NewlyDown() {
		o.emit(obs.Event{Type: obs.TypeFault, Kind: obs.KindCrash, Round: r, Node: u, Peer: obs.NoNode})
	}
	for _, u := range in.NewlyRecovered() {
		old := o.protocols[u].Leader()
		if c, ok := o.protocols[u].(Corruptible); ok && in.ResetOnRecover() {
			c.CorruptState(in.StateRNG(u, r))
		}
		o.emit(obs.Event{Type: obs.TypeFault, Kind: obs.KindRecover, Round: r, Node: u, Peer: obs.NoNode,
			A: old, B: o.protocols[u].Leader()})
	}
	for _, u := range in.CorruptTargets(r) {
		c, ok := o.protocols[u].(Corruptible)
		if !ok || !o.active[u] {
			continue
		}
		old := o.protocols[u].Leader()
		c.CorruptState(in.StateRNG(u, r))
		o.emit(obs.Event{Type: obs.TypeFault, Kind: obs.KindCorrupt, Round: r, Node: u, Peer: obs.NoNode,
			A: old, B: o.protocols[u].Leader()})
	}
}

// acceptAndExchange runs steps 4 and 5 of the mobile telephone model.
func (o *oracle) acceptAndExchange(s *RoundStats) {
	in, r := o.cfg.Faults, o.r
	for v := range o.inbox {
		o.inbox[v] = o.inbox[v][:0]
	}
	for u, t := range o.action {
		if t < 0 {
			continue
		}
		s.Proposals++
		o.emit(obs.Event{Type: obs.TypePropose, Round: r, Node: int32(u), Peer: t, A: o.tags[u], B: o.tags[t]})
		switch {
		case in != nil && in.DropProposal(int32(u), r):
			s.FaultLost++
			o.emit(obs.Event{Type: obs.TypeFault, Kind: obs.KindPropLoss, Round: r, Node: t, Peer: int32(u)})
		case o.action[t] != actionReceive:
			// A node that sends cannot also receive.
			s.BusyLost++
			o.emit(obs.Event{Type: obs.TypeReject, Kind: obs.KindBusy, Round: r, Node: t, Peer: int32(u)})
		default:
			o.inbox[t] = append(o.inbox[t], int32(u))
		}
	}

	for u := range o.partner {
		o.partner[u] = noPartner
	}
	for v, inbox := range o.inbox {
		if len(inbox) == 0 {
			continue
		}
		c := o.accept(v, inbox)
		s.Rejects += len(inbox) - 1
		dropped := in != nil && in.DropConnection(int32(v), c, r)
		if dropped {
			s.FaultLost++
			o.emit(obs.Event{Type: obs.TypeFault, Kind: obs.KindConnLoss, Round: r, Node: int32(v), Peer: c})
		} else {
			s.Connections++
			o.partner[v], o.partner[c] = c, int32(v)
			o.emit(obs.Event{Type: obs.TypeAccept, Round: r, Node: int32(v), Peer: c})
		}
		for _, u := range inbox {
			if u != c {
				o.emit(obs.Event{Type: obs.TypeReject, Kind: obs.KindContention, Round: r, Node: int32(v), Peer: u})
			}
		}
		if !dropped {
			o.emit(obs.Event{Type: obs.TypeConnect, Round: r, Node: min(int32(v), c), Peer: max(int32(v), c)})
		}
	}
	s.Accepts = s.Connections

	for u, v := range o.partner {
		if v > int32(u) {
			o.exchange(int32(u), v)
		}
	}
}

// accept picks one sender from a receiver's inbox, which lists its senders
// in ascending order. Uniform acceptance draws from the receiver's stream
// only when there is a choice to make.
func (o *oracle) accept(v int, inbox []int32) int32 {
	switch o.cfg.Accept {
	case AcceptUniform:
		if len(inbox) == 1 {
			return inbox[0]
		}
		return inbox[o.streams.rngs[v].Intn(len(inbox))]
	case AcceptLowestID:
		return inbox[0]
	case AcceptHighestID:
		return inbox[len(inbox)-1]
	}
	panic(fmt.Sprintf("oracle: unknown accept policy %d", o.cfg.Accept))
}

// classical runs the classical telephone model instead of steps 4 and 5:
// every proposal that arrives is answered, in sender order. A proposal
// fault injection drops counts in FaultLost, every other one is accepted.
func (o *oracle) classical(s *RoundStats) {
	in, r := o.cfg.Faults, o.r
	for u, v := range o.action {
		if v < 0 {
			continue
		}
		s.Proposals++
		o.emit(obs.Event{Type: obs.TypePropose, Round: r, Node: int32(u), Peer: v, A: o.tags[u], B: o.tags[v]})
		if in != nil && in.DropProposal(int32(u), r) {
			s.FaultLost++
			o.emit(obs.Event{Type: obs.TypeFault, Kind: obs.KindPropLoss, Round: r, Node: v, Peer: int32(u)})
			continue
		}
		s.Connections++
		o.emit(obs.Event{Type: obs.TypeAccept, Round: r, Node: v, Peer: int32(u)})
		o.emit(obs.Event{Type: obs.TypeConnect, Round: r, Node: min(int32(u), v), Peer: max(int32(u), v)})
		o.exchange(int32(u), v)
	}
	s.Accepts = s.Connections
}

// exchange trades one bounded message each way over the connection (u, v)
// and counts it in both nodes' load.
func (o *oracle) exchange(u, v int32) {
	o.load[u]++
	o.load[v]++
	cu, cv := o.ctx(u), o.ctx(v)
	mu := o.protocols[u].Outgoing(cu, v)
	mv := o.protocols[v].Outgoing(cv, u)
	if len(mu.UIDs) > MaxUIDs || len(mv.UIDs) > MaxUIDs {
		panic(fmt.Sprintf("oracle: connection (%d, %d) exceeds the %d-UID message budget", u, v, MaxUIDs))
	}
	o.deliver(cu, v, mv)
	o.deliver(cv, u, mu)
}

// deliver hands the node of c the message m from peer, after the delivery
// event that precedes any transition it causes.
func (o *oracle) deliver(c *Context, peer int32, m Message) {
	var uid uint64
	if len(m.UIDs) > 0 {
		uid = m.UIDs[0]
	}
	o.emit(obs.Event{Type: obs.TypeDeliver, Round: o.r, Node: c.Node, Peer: peer, A: uid, B: m.Aux})
	o.protocols[c.Node].Deliver(c, peer, m)
}
