// Package aggregate implements data aggregation in the mobile telephone
// model — another of the problems the paper's conclusion proposes for the
// model ("gossip, consensus, and data aggregation").
//
// Two families of aggregates are provided:
//
//   - Extrema (Min/Max): spread exactly like blind gossip leader election;
//     the Section VI analysis applies verbatim, so extrema complete in
//     O((1/α)Δ²log²n) rounds with b = 0.
//   - Averages (Mean, Sum, Count): pairwise mass averaging (a push-sum
//     variant restricted to one connection per node per round, as the model
//     requires). Each node holds a (value, weight) pair; a connected pair
//     replaces both pairs with their averages. Total value-mass and
//     weight-mass are invariant, so every estimate value/weight converges
//     to the true mean; seeding weight 1 at a single node turns the same
//     machinery into a Count (crowd size) estimator.
//
// Mass conservation is the key safety invariant and is enforced in tests to
// within floating-point tolerance.
package aggregate

import (
	"math"

	"mobiletel/internal/sim"
)

// Extremum gossips a running minimum or maximum of the nodes' inputs using
// fair-coin blind gossip (b = 0).
type Extremum struct {
	wantMax bool
	best    float64
}

var _ sim.Protocol = (*Extremum)(nil)

// NewMin creates a minimum-tracking node with the given input.
func NewMin(input float64) *Extremum { return &Extremum{wantMax: false, best: input} }

// NewMax creates a maximum-tracking node with the given input.
func NewMax(input float64) *Extremum { return &Extremum{wantMax: true, best: input} }

// Advertise returns 0 (b = 0).
func (e *Extremum) Advertise(*sim.Context) uint64 { return 0 }

// Decide flips a fair coin; senders target a uniformly random neighbor.
func (e *Extremum) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Bool() {
		return 0, false
	}
	return ctx.RandomNeighbor()
}

// Outgoing sends the current extremum in the auxiliary bits.
func (e *Extremum) Outgoing(*sim.Context, int32) sim.Message {
	return sim.Message{Aux: math.Float64bits(e.best)}
}

// Deliver merges the peer's extremum.
func (e *Extremum) Deliver(_ *sim.Context, _ int32, msg sim.Message) {
	v := math.Float64frombits(msg.Aux)
	if e.wantMax {
		if v > e.best {
			e.best = v
		}
	} else if v < e.best {
		e.best = v
	}
}

// Leader reports the current extremum's bits, so sim.AllLeadersEqual
// doubles as the completion detector.
func (e *Extremum) Leader() uint64 { return math.Float64bits(e.best) }

// Estimate returns the node's current extremum.
func (e *Extremum) Estimate() float64 { return e.best }

// Averager runs pairwise mass averaging for Mean/Sum/Count aggregates.
type Averager struct {
	value  float64
	weight float64

	// buf backs the UID slice of outgoing messages: the engine delivers
	// each message before this node's next Outgoing, and Deliver only reads
	// values out of the slice.
	buf [2]uint64
}

var _ sim.Protocol = (*Averager)(nil)

// NewAverager creates a node holding the (value, weight) mass pair.
func NewAverager(value, weight float64) *Averager {
	return &Averager{value: value, weight: weight}
}

// Advertise returns 0 (b = 0).
func (a *Averager) Advertise(*sim.Context) uint64 { return 0 }

// Decide flips a fair coin; senders target a uniformly random neighbor.
func (a *Averager) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.Bool() {
		return 0, false
	}
	return ctx.RandomNeighbor()
}

// Outgoing ships this node's half of the averaging exchange: both sides
// send their pair and both replace their state with the average, conserving
// total mass exactly up to floating-point rounding.
func (a *Averager) Outgoing(*sim.Context, int32) sim.Message {
	a.buf = [2]uint64{math.Float64bits(a.value), math.Float64bits(a.weight)}
	return sim.Message{UIDs: a.buf[:]}
}

// Deliver averages the peer's mass into this node.
func (a *Averager) Deliver(_ *sim.Context, _ int32, msg sim.Message) {
	if len(msg.UIDs) != 2 {
		return
	}
	pv := math.Float64frombits(msg.UIDs[0])
	pw := math.Float64frombits(msg.UIDs[1])
	a.value = (a.value + pv) / 2
	a.weight = (a.weight + pw) / 2
}

// Leader is unused for averaging (no exact stabilization point); it reports
// a quantized estimate so coarse agreement checks are possible.
func (a *Averager) Leader() uint64 {
	if a.weight == 0 {
		return 0
	}
	return uint64(int64(a.value / a.weight * 1024))
}

// Estimate returns value/weight, the node's current estimate of the
// aggregate (mean for uniform weights, count/sum for seeded weights).
// It returns NaN while the node's weight is zero (no information yet).
func (a *Averager) Estimate() float64 {
	if a.weight == 0 {
		return math.NaN()
	}
	return a.value / a.weight
}

// Mass returns the node's current (value, weight) mass pair.
func (a *Averager) Mass() (value, weight float64) { return a.value, a.weight }

// NewMeanNetwork builds an averaging network estimating the mean of inputs:
// every node starts with (input, 1).
func NewMeanNetwork(inputs []float64) []sim.Protocol {
	protocols := make([]sim.Protocol, len(inputs))
	for i, x := range inputs {
		protocols[i] = NewAverager(x, 1)
	}
	return protocols
}

// NewCountNetwork builds an averaging network estimating the network size:
// every node starts with value 1; only the designated root starts with
// weight 1. Estimates converge to n.
func NewCountNetwork(n, root int) []sim.Protocol {
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		w := 0.0
		if i == root {
			w = 1
		}
		protocols[i] = NewAverager(1, w)
	}
	return protocols
}

// NewSumNetwork builds an averaging network estimating the sum of inputs:
// node i starts with (input_i, w) where only the root has w = 1.
func NewSumNetwork(inputs []float64, root int) []sim.Protocol {
	protocols := make([]sim.Protocol, len(inputs))
	for i, x := range inputs {
		w := 0.0
		if i == root {
			w = 1
		}
		protocols[i] = NewAverager(x, w)
	}
	return protocols
}

// MaxRelativeError returns the largest |estimate - truth| / max(|truth|, 1)
// over all nodes; nodes with zero weight count as error 1.
func MaxRelativeError(protocols []sim.Protocol, truth float64) float64 {
	denom := math.Abs(truth)
	if denom < 1 {
		denom = 1
	}
	worst := 0.0
	for _, p := range protocols {
		est := p.(*Averager).Estimate()
		var e float64
		if math.IsNaN(est) {
			e = 1
		} else {
			e = math.Abs(est-truth) / denom
		}
		if e > worst {
			worst = e
		}
	}
	return worst
}

// TotalMass sums (value, weight) over the network — the conserved
// quantities of the averaging dynamics.
func TotalMass(protocols []sim.Protocol) (value, weight float64) {
	for _, p := range protocols {
		v, w := p.(*Averager).Mass()
		value += v
		weight += w
	}
	return value, weight
}

// WithinTolerance returns a stop condition that fires once every node's
// estimate is within rel of truth.
func WithinTolerance(truth, rel float64) sim.StopCondition {
	return func(_ int, protocols []sim.Protocol) bool {
		return MaxRelativeError(protocols, truth) <= rel
	}
}
