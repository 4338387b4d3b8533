// Package fault is the simulator's deterministic fault-injection layer: a
// seed-derived Plan of crashes, recoveries, message loss, advertisement
// corruption, network partitions, and adversarial state resets, compiled
// into an Injector the engine consults at fixed points of each round.
//
// Design constraints, in priority order:
//
//  1. Determinism, order-independently. Every per-node fault draw comes from
//     its own per-(node, round) stream, derived exactly like the engine's
//     node streams (xrand.Derive(seed, node, round)) but from Plan.Seed and
//     a per-fault-kind salt folded into the node address. A draw's outcome
//     therefore depends only on (plan seed, kind, node, round) — never on
//     how many draws other nodes consumed first — so the engine may evaluate
//     them in any order, from any worker, and a faulted execution stays a
//     pure function of (seed, schedule, protocol, config, plan) at any
//     worker count. Only the churn state machine (scripted crashes and
//     recoveries, rate churn under the MaxDown cap) is inherently
//     order-dependent; it runs once per round in BeginRound, on the
//     engine's sequential prologue, drawing from a per-round stream in
//     ascending node order. State resets (corruption bursts, recoveries
//     with ResetOnRecover) draw nothing: a reset node returns to the state
//     its protocol was built with. Rates of zero consume no draws and touch
//     no stream, so adding an unused knob never perturbs runs.
//  2. Composability. Faults stack on top of any schedule: a crashed node is
//     treated exactly like a node outside its activation window (invisible,
//     no callbacks), and recovers into whatever topology the schedule then
//     prescribes.
//  3. Zero cost when absent. A nil *Injector in sim.Config adds only
//     nil-checks to the round loop; the fault-free steady state stays at
//     0 allocs/round (TestSteadyStateZeroAllocs). Per-node draw methods
//     construct their stream in a stack-local RNG, so they are heap-free
//     and safe to call concurrently.
//
// The Injector is single-run state: build one per engine with NewInjector
// and do not share or reuse it across runs.
package fault

import (
	"fmt"
	"sort"

	"mobiletel/internal/xrand"
)

// StreamVersion identifies the fault stream derivation scheme. Version 2
// replaced version 1's single sequential per-round stream (draws consumed in
// a fixed documented order) with the node-addressed streams described in the
// package comment; any numeric result of a faulted run changed at that
// boundary (see DESIGN §10).
const StreamVersion = 2

// Per-stream salts. The churn stream is addressed (Plan.Seed, churnStream,
// round); per-node streams are addressed (Plan.Seed, kindSalt|node, round).
// The salts occupy high bits far above any node id (node ids are int32), so
// streams of different kinds — and the churn stream — can never collide, and
// none of them collides with the engine's per-(node, round) streams, which
// mix a different seed.
const (
	churnStream = 0xfa171 // BeginRound churn state machine (per-round)
	tagStream   = 0xfa17_2000_0000_0000
	propStream  = 0xfa17_3000_0000_0000
	connStream  = 0xfa17_4000_0000_0000
	partStream  = 0xfa17_6000_0000_0000
)

// NodeRound schedules a scripted fault for one node at the start of one
// round (rounds are 1-based, matching the engine).
type NodeRound struct {
	Round int
	Node  int
}

// Burst schedules an adversarial state reset of a set of nodes at the start
// of one round — the Section VIII self-stabilization adversary: corrupted
// nodes forget everything they learned and restart from their initial state.
type Burst struct {
	Round int
	Nodes []int
}

// Partition cuts the network into Parts seed-derived components for the
// rounds [Start, Heal): every edge whose endpoints fall in different
// components deterministically loses any connection accepted over it
// (modeled as ConnLoss on cut edges — proposals still cross the cut, so a
// receiver can waste its round accepting one, exactly like a connection
// that fails after acceptance). Heal == 0 means the cut never heals.
// Component assignment hashes (Plan.Seed, partition index, node), so the
// same plan splits the same nodes regardless of topology.
type Partition struct {
	Start int
	Heal  int
	Parts int
}

// Plan describes the faults to inject into one execution. The zero value is
// a fault-free plan. Scripted faults (Crashes, Recoveries, Corruptions,
// Partitions) fire at exact rounds; rates draw independently each round
// from the plan's own seed-derived streams.
type Plan struct {
	// Seed derives the fault RNG streams. Independent of the execution's
	// seed (sim.Config.Seed, the facade's Options.Seed) so the same fault
	// pattern can be replayed against different executions (and vice
	// versa).
	Seed uint64

	// CrashRate is the per-round probability that each up node crashes;
	// RecoverRate the per-round probability that each down node recovers.
	CrashRate   float64
	RecoverRate float64

	// MaxDown caps the number of simultaneously-down nodes reachable via
	// CrashRate (scripted crashes are exempt). 0 means no cap.
	MaxDown int

	// ResetOnRecover models crash-with-amnesia: a recovering node's protocol
	// state is reset (via sim.Corruptible) as if freshly activated. False
	// models a transient disconnect that preserves state.
	ResetOnRecover bool

	// ProposalLoss is the per-proposal probability that a connection
	// proposal is dropped in transit. ConnLoss is the per-acceptance
	// probability that an accepted connection fails before the message
	// exchange. TagFlipRate is the per-(active node, round) probability that
	// one uniformly chosen bit of its advertisement is flipped on the air.
	ProposalLoss float64
	ConnLoss     float64
	TagFlipRate  float64

	// Scripted faults, applied at the start of their round before any rate
	// draws. A crash of an already-down node (or recovery of an up one) is a
	// no-op. Validate rejects duplicate (round, node) crash entries and
	// recoveries of nodes with no strictly earlier scripted crash.
	Crashes    []NodeRound
	Recoveries []NodeRound

	// Corruptions are adversarial state-reset bursts. Only nodes active in
	// the burst round are corrupted.
	Corruptions []Burst

	// Partitions are scheduled network splits with heal rounds.
	Partitions []Partition
}

// Validate checks the plan against a network of n nodes.
func (p *Plan) Validate(n int) error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"CrashRate", p.CrashRate},
		{"RecoverRate", p.RecoverRate},
		{"ProposalLoss", p.ProposalLoss},
		{"ConnLoss", p.ConnLoss},
		{"TagFlipRate", p.TagFlipRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: %s = %v, want [0, 1]", r.name, r.v)
		}
	}
	if p.MaxDown < 0 || p.MaxDown > n {
		return fmt.Errorf("fault: MaxDown = %d, want [0, %d]", p.MaxDown, n)
	}
	check := func(what string, round, node int) error {
		if round < 1 {
			return fmt.Errorf("fault: %s round %d, rounds are 1-based", what, round)
		}
		if node < 0 || node >= n {
			return fmt.Errorf("fault: %s node %d out of range [0, %d)", what, node, n)
		}
		return nil
	}
	seenCrash := make(map[NodeRound]bool, len(p.Crashes))
	firstCrash := make(map[int]int, len(p.Crashes)) // node -> earliest crash round
	for _, c := range p.Crashes {
		if err := check("scripted crash", c.Round, c.Node); err != nil {
			return err
		}
		if seenCrash[c] {
			return fmt.Errorf("fault: duplicate scripted crash of node %d at round %d", c.Node, c.Round)
		}
		seenCrash[c] = true
		if first, ok := firstCrash[c.Node]; !ok || c.Round < first {
			firstCrash[c.Node] = c.Round
		}
	}
	for _, c := range p.Recoveries {
		if err := check("scripted recovery", c.Round, c.Node); err != nil {
			return err
		}
		if first, ok := firstCrash[c.Node]; !ok || first >= c.Round {
			return fmt.Errorf("fault: scripted recovery of node %d at round %d without a scripted crash in an earlier round", c.Node, c.Round)
		}
	}
	for _, b := range p.Corruptions {
		if len(b.Nodes) == 0 {
			return fmt.Errorf("fault: corruption burst at round %d has no nodes", b.Round)
		}
		for _, u := range b.Nodes {
			if err := check("corruption", b.Round, u); err != nil {
				return err
			}
		}
	}
	for i, part := range p.Partitions {
		if part.Start < 1 {
			return fmt.Errorf("fault: partition %d starts at round %d, rounds are 1-based", i, part.Start)
		}
		if part.Heal != 0 && part.Heal <= part.Start {
			return fmt.Errorf("fault: partition %d heals at round %d, want 0 (never) or > Start (%d)", i, part.Heal, part.Start)
		}
		if part.Parts < 2 || part.Parts > n {
			return fmt.Errorf("fault: partition %d splits into %d parts, want [2, %d]", i, part.Parts, n)
		}
	}
	return nil
}

// Injector is a Plan compiled for one n-node execution. The engine calls
// BeginRound once per round in its sequential prologue; the churn accessors
// (DownMask, NewlyDown, ...) are likewise sequential-only. The
// per-node draw methods (FlipTag, DropProposal, DropConnection) touch no
// injector state and may be called concurrently from any worker, in any
// order.
type Injector struct {
	plan Plan
	n    int

	// rng is sequential scratch for the churn stream in BeginRound.
	rng xrand.RNG

	down      []bool
	downCount int

	// Scripted faults indexed by round (single-key lookups only; iteration
	// order never matters — and CorruptTargets pins that the per-round node
	// lists are sorted ascending regardless of plan declaration order).
	crashAt   map[int][]int32
	recoverAt map[int][]int32
	corruptAt map[int][]int32

	// partComp[i][u] is node u's seed-derived component under partition i.
	partComp [][]int32

	// Per-round scratch, valid until the next BeginRound.
	newlyDown      []int32
	newlyRecovered []int32
}

// NewInjector validates plan against an n-node network and compiles it.
func NewInjector(plan Plan, n int) (*Injector, error) {
	if n < 1 {
		return nil, fmt.Errorf("fault: n = %d, want >= 1", n)
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	in := &Injector{plan: plan, n: n}
	if plan.CrashRate > 0 || plan.RecoverRate > 0 || len(plan.Crashes) > 0 {
		in.down = make([]bool, n)
		in.newlyDown = make([]int32, 0, 8)
		in.newlyRecovered = make([]int32, 0, 8)
	}
	in.crashAt = indexByRound(plan.Crashes)
	in.recoverAt = indexByRound(plan.Recoveries)
	if len(plan.Corruptions) > 0 {
		in.corruptAt = make(map[int][]int32, len(plan.Corruptions))
		for _, b := range plan.Corruptions {
			nodes := append(in.corruptAt[b.Round], toInt32Sorted(b.Nodes)...)
			sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
			in.corruptAt[b.Round] = nodes
		}
	}
	if len(plan.Partitions) > 0 {
		in.partComp = make([][]int32, len(plan.Partitions))
		var rng xrand.RNG
		for i, part := range plan.Partitions {
			comp := make([]int32, n)
			for u := 0; u < n; u++ {
				rng.Reseed(plan.Seed, partStream|uint64(uint32(i)), uint64(u))
				comp[u] = int32(rng.Intn(part.Parts))
			}
			in.partComp[i] = comp
		}
	}
	return in, nil
}

func indexByRound(events []NodeRound) map[int][]int32 {
	if len(events) == 0 {
		return nil
	}
	idx := make(map[int][]int32, len(events))
	for _, e := range events {
		idx[e.Round] = append(idx[e.Round], int32(e.Node))
	}
	for r, nodes := range idx {
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		idx[r] = nodes
	}
	return idx
}

func toInt32Sorted(nodes []int) []int32 {
	out := make([]int32, len(nodes))
	for i, u := range nodes {
		out[i] = int32(u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// N returns the network size the injector was compiled for.
func (in *Injector) N() int { return in.n }

// ResetOnRecover reports whether recovering nodes lose their state.
func (in *Injector) ResetOnRecover() bool { return in.plan.ResetOnRecover }

// TagFlipEnabled reports whether any tag-flip draw can fire, so the engine
// can skip the flip pass entirely for plans that never flip.
func (in *Injector) TagFlipEnabled() bool { return in.plan.TagFlipRate > 0 }

// BeginRound advances the churn state machine into round r: it reseeds the
// round's churn stream, applies scripted crashes and recoveries, then draws
// random churn in ascending node order. It must be called exactly once per
// round, in ascending round order, before any other query for that round.
func (in *Injector) BeginRound(r int) {
	in.rng.Reseed(in.plan.Seed, churnStream, uint64(r))
	in.newlyDown = in.newlyDown[:0]
	in.newlyRecovered = in.newlyRecovered[:0]
	if in.down == nil {
		return
	}
	for _, u := range in.crashAt[r] {
		in.setDown(u, true)
	}
	for _, u := range in.recoverAt[r] {
		in.setDown(u, false)
	}
	if in.plan.CrashRate == 0 && in.plan.RecoverRate == 0 {
		return
	}
	for u := 0; u < in.n; u++ {
		if in.down[u] {
			if in.plan.RecoverRate > 0 && in.rng.Float64() < in.plan.RecoverRate {
				in.setDown(int32(u), false)
			}
		} else if in.plan.CrashRate > 0 && in.rng.Float64() < in.plan.CrashRate {
			if in.plan.MaxDown > 0 && in.downCount >= in.plan.MaxDown {
				continue
			}
			in.setDown(int32(u), true)
		}
	}
}

func (in *Injector) setDown(u int32, d bool) {
	if in.down[u] == d {
		return
	}
	in.down[u] = d
	if d {
		in.downCount++
		in.newlyDown = append(in.newlyDown, u)
	} else {
		in.downCount--
		in.newlyRecovered = append(in.newlyRecovered, u)
	}
}

// DownMask returns the per-node down flags, or nil when every node is up —
// the engine skips the mask check entirely in the common case.
func (in *Injector) DownMask() []bool {
	if in.downCount == 0 {
		return nil
	}
	return in.down
}

// Down reports whether node u is currently down.
func (in *Injector) Down(u int) bool { return in.down != nil && in.down[u] }

// DownCount returns the number of currently-down nodes.
func (in *Injector) DownCount() int { return in.downCount }

// NewlyDown returns the nodes that crashed at this round's BeginRound, in
// the order the transitions fired (scripted first, then churn; ascending
// within each). Valid until the next BeginRound.
func (in *Injector) NewlyDown() []int32 { return in.newlyDown }

// NewlyRecovered returns the nodes that recovered at this round's
// BeginRound. Valid until the next BeginRound.
func (in *Injector) NewlyRecovered() []int32 { return in.newlyRecovered }

// CorruptTargets returns the nodes to corrupt at the start of round r, in
// ascending order (nil for rounds without a burst).
func (in *Injector) CorruptTargets(r int) []int32 {
	if in.corruptAt == nil {
		return nil
	}
	return in.corruptAt[r]
}

// FlipTag decides whether node u's advertisement is corrupted at round r; it
// returns the (possibly flipped) tag. Node-addressed: safe from any worker,
// in any order. A zero TagFlipRate touches no stream.
//
//mtmlint:hotpath
func (in *Injector) FlipTag(u int32, r, tagBits int, tag uint64) (uint64, bool) {
	if in.plan.TagFlipRate == 0 || tagBits == 0 {
		return tag, false
	}
	var rng xrand.RNG
	rng.Reseed(in.plan.Seed, tagStream|uint64(uint32(u)), uint64(r))
	if rng.Float64() >= in.plan.TagFlipRate {
		return tag, false
	}
	bit := rng.Intn(tagBits)
	return tag ^ (1 << uint(bit)), true
}

// DropProposal decides whether proposer u's in-flight proposal is lost at
// round r. Node-addressed: safe from any worker, in any order. A zero
// ProposalLoss touches no stream.
//
//mtmlint:hotpath
func (in *Injector) DropProposal(u int32, r int) bool {
	if in.plan.ProposalLoss == 0 {
		return false
	}
	var rng xrand.RNG
	rng.Reseed(in.plan.Seed, propStream|uint64(uint32(u)), uint64(r))
	return rng.Float64() < in.plan.ProposalLoss
}

// DropConnection decides whether the connection receiver v accepted from
// sender c fails before the exchange at round r: deterministically when a
// live partition cuts the (v, c) edge, otherwise by a per-(receiver, round)
// ConnLoss draw. Node-addressed: safe from any worker, in any order. With
// no partitions and a zero ConnLoss it touches no stream.
//
//mtmlint:hotpath
func (in *Injector) DropConnection(v, c int32, r int) bool {
	if in.CutEdge(v, c, r) {
		return true
	}
	if in.plan.ConnLoss == 0 {
		return false
	}
	var rng xrand.RNG
	rng.Reseed(in.plan.Seed, connStream|uint64(uint32(v)), uint64(r))
	return rng.Float64() < in.plan.ConnLoss
}

// CutEdge reports whether a live partition separates u and v at round r.
// DropConnection asks it first; observers and experiments may ask it too.
func (in *Injector) CutEdge(u, v int32, r int) bool {
	for i := range in.partComp {
		p := &in.plan.Partitions[i]
		if r >= p.Start && (p.Heal == 0 || r < p.Heal) && in.partComp[i][u] != in.partComp[i][v] {
			return true
		}
	}
	return false
}
