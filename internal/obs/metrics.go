package obs

import "mobiletel/internal/trace"

// MetricsSchema identifies the run-summary JSON layout.
const MetricsSchema = "mtmtrace-metrics/v1"

// Metrics is a streaming aggregator sink: it folds the event stream into a
// per-run Summary without retaining the events themselves. It works equally
// attached live to an engine or replaying a JSONL trace (mtmtrace summary).
type Metrics struct {
	header Header

	rounds      int
	proposals   int64
	accepts     int64
	rejects     int64
	lost        int64
	connections int64

	// Per-round curves, folded streaming at round_end into bounded
	// max-pooled buffers (see curve) so a multi-GB trace summarizes in
	// O(1) resident memory.
	connCurve      curve[int]
	acceptCurve    curve[float64] // accepts/proposals (0 when no proposals)
	imbalanceCurve curve[float64] // max load / mean load so far

	// Incremental matching stats (each round's connections form a matching),
	// maintained at round_end so Summary never needs the full curve.
	matchTotal  int64
	matchRounds int64
	maxMatching int

	transitions      [len(kindNames)]int64
	convergenceRound int // last round a leader/informed transition fired

	// Injected-fault accounting (TypeFault events, internal/fault).
	faults         [len(kindNames)]int64
	faultLost      int64 // proposals killed by proploss/connloss faults
	lastFaultRound int   // last round any fault fired (0 = none)

	// Lifetime per-node connection counts, maintained incrementally from
	// connect events so the imbalance curve costs O(1) per connection.
	connCount []int64
	maxLoad   int64

	// Scratch for the current round (reset at round_start).
	roundProposals int64
	roundAccepts   int64
	roundConns     int64

	gammaBound float64
}

// NewMetrics creates an empty aggregator.
func NewMetrics() *Metrics { return &Metrics{} }

// SetGammaBound supplies the topology's exact cut-matching number γ
// (matching.GammaExact) so the summary can relate observed matching sizes
// to the Lemma V.1 guarantee. Call before or after the run; zero means
// unknown (the summary omits the comparison).
func (m *Metrics) SetGammaBound(gamma float64) { m.gammaBound = gamma }

// Begin sizes the per-node state from the run header.
func (m *Metrics) Begin(h Header) {
	m.header = h
	if h.N > 0 {
		m.connCount = make([]int64, h.N)
	}
}

// Event folds one event into the aggregate.
func (m *Metrics) Event(e Event) {
	switch e.Type {
	case TypeRoundStart:
		m.roundProposals, m.roundAccepts, m.roundConns = 0, 0, 0
	case TypePropose:
		m.proposals++
		m.roundProposals++
	case TypeAccept:
		m.accepts++
		m.roundAccepts++
	case TypeReject:
		// Busy-target proposals are "lost" (the target was itself sending);
		// contention rejects reached a receiver but were not the one chosen.
		if e.Kind == KindBusy {
			m.lost++
		} else {
			m.rejects++
		}
	case TypeConnect:
		m.connections++
		m.roundConns++
		m.bumpLoad(e.Node)
		m.bumpLoad(e.Peer)
	case TypeTransition:
		if int(e.Kind) < len(m.transitions) {
			m.transitions[e.Kind]++
		}
		if e.Kind == KindLeader || e.Kind == KindInformed {
			m.convergenceRound = e.Round
		}
	case TypeFault:
		if int(e.Kind) < len(m.faults) {
			m.faults[e.Kind]++
		}
		if e.Kind == KindPropLoss || e.Kind == KindConnLoss {
			m.faultLost++
		}
		if e.Round > m.lastFaultRound {
			m.lastFaultRound = e.Round
		}
	case TypeRoundEnd:
		if e.Round > m.rounds {
			m.rounds = e.Round
		}
		m.connCurve.add(int(m.roundConns))
		rate := 0.0
		if m.roundProposals > 0 {
			rate = float64(m.roundAccepts) / float64(m.roundProposals)
		}
		m.acceptCurve.add(rate)
		m.imbalanceCurve.add(m.imbalance())
		m.matchTotal += m.roundConns
		m.matchRounds++
		if int(m.roundConns) > m.maxMatching {
			m.maxMatching = int(m.roundConns)
		}
	}
}

// End is a no-op; the aggregate is read via Summary.
func (m *Metrics) End() {}

func (m *Metrics) bumpLoad(node int32) {
	if node < 0 || int(node) >= len(m.connCount) {
		return
	}
	m.connCount[node]++
	if m.connCount[node] > m.maxLoad {
		m.maxLoad = m.connCount[node]
	}
}

// imbalance returns max/mean of the lifetime per-node connection counts so
// far (0 before any connection).
func (m *Metrics) imbalance() float64 {
	if len(m.connCount) == 0 || m.connections == 0 {
		return 0
	}
	mean := 2 * float64(m.connections) / float64(len(m.connCount))
	return float64(m.maxLoad) / mean
}

// LoadSummary summarizes lifetime per-node connection load.
type LoadSummary struct {
	Min       int64   `json:"min"`
	Max       int64   `json:"max"`
	Mean      float64 `json:"mean"`
	Imbalance float64 `json:"imbalance"`
}

// Summary is the per-run metrics report (JSON layout versioned by
// MetricsSchema). Curves are max-pooled to at most CurvePoints entries so
// summaries of million-round runs stay small.
type Summary struct {
	Schema   string `json:"schema"`
	Seed     uint64 `json:"seed"`
	Schedule string `json:"schedule"`
	N        int    `json:"n"`

	Rounds    int   `json:"rounds"`
	Proposals int64 `json:"proposals"`
	Accepts   int64 `json:"accepts"`
	// Rejects counts contention rejects (the proposal reached a receiver
	// that chose another suitor); Lost counts busy-target proposals (the
	// target was itself sending); FaultLost counts proposals killed by
	// injected faults (proploss/connloss).
	// Accepts + Rejects + Lost + FaultLost == Proposals.
	Rejects     int64 `json:"rejects"`
	Lost        int64 `json:"lost"`
	FaultLost   int64 `json:"fault_lost,omitempty"`
	Connections int64 `json:"connections"`

	// AcceptanceRate is accepts/proposals over the whole run.
	AcceptanceRate float64 `json:"acceptance_rate"`

	// ConvergenceRound is the last round any node's leader estimate (or
	// informed status, for rumor runs) changed — the run's effective
	// rounds-to-convergence as observed from the event stream.
	ConvergenceRound int `json:"convergence_round"`

	// Transitions counts protocol state transitions per kind.
	Transitions map[string]int64 `json:"transitions"`

	// Faults counts injected faults per kind (omitted for fault-free runs).
	Faults map[string]int64 `json:"faults,omitempty"`

	// LastFaultRound is the last round any fault fired (0 = fault-free run).
	// RecoveryRounds is the recovery metric for fault-burst runs: rounds from
	// the last fault to the last leader/informed transition
	// (ConvergenceRound - LastFaultRound, floored at 0) — re-election /
	// re-stabilization time when the burst precedes final convergence.
	LastFaultRound int `json:"last_fault_round,omitempty"`
	RecoveryRounds int `json:"recovery_rounds,omitempty"`

	// MeanMatching / MaxMatching describe per-round connection-set sizes
	// (each round's connections form a matching in the mobile telephone
	// model).
	MeanMatching float64 `json:"mean_matching"`
	MaxMatching  int     `json:"max_matching"`

	// GammaBound is the topology's exact γ (matching.GammaExact) when known.
	// MatchingVsBound relates the observed mean matching size to the
	// Lemma V.1 scale γ·n/2 — the matching size the lemma guarantees is
	// reachable for a fully-active round.
	GammaBound      float64 `json:"gamma_bound,omitempty"`
	MatchingVsBound float64 `json:"matching_vs_bound,omitempty"`

	Load LoadSummary `json:"load"`

	ConnectionsCurve []int     `json:"connections_curve"`
	AcceptanceCurve  []float64 `json:"acceptance_curve"`
	ImbalanceCurve   []float64 `json:"imbalance_curve"`
}

// CurvePoints bounds the curve lengths embedded in a Summary.
const CurvePoints = 128

// Summary renders the aggregate.
func (m *Metrics) Summary() Summary {
	s := Summary{
		Schema:           MetricsSchema,
		Seed:             m.header.Seed,
		Schedule:         m.header.Schedule,
		N:                m.header.N,
		Rounds:           m.rounds,
		Proposals:        m.proposals,
		Accepts:          m.accepts,
		Rejects:          m.rejects,
		Lost:             m.lost,
		FaultLost:        m.faultLost,
		Connections:      m.connections,
		ConvergenceRound: m.convergenceRound,
		Transitions:      make(map[string]int64),
		ConnectionsCurve: trace.Downsample(m.connCurve.vals, CurvePoints),
		AcceptanceCurve:  trace.Downsample(m.acceptCurve.vals, CurvePoints),
		ImbalanceCurve:   trace.Downsample(m.imbalanceCurve.vals, CurvePoints),
	}
	if m.proposals > 0 {
		s.AcceptanceRate = float64(m.accepts) / float64(m.proposals)
	}
	for k, c := range m.transitions {
		if c > 0 {
			s.Transitions[Kind(k).String()] = c
		}
	}
	for k, c := range m.faults {
		if c > 0 {
			if s.Faults == nil {
				s.Faults = make(map[string]int64)
			}
			s.Faults[Kind(k).String()] = c
		}
	}
	if m.lastFaultRound > 0 {
		s.LastFaultRound = m.lastFaultRound
		if m.convergenceRound > m.lastFaultRound {
			s.RecoveryRounds = m.convergenceRound - m.lastFaultRound
		}
	}
	s.MaxMatching = m.maxMatching
	if m.matchRounds > 0 {
		s.MeanMatching = float64(m.matchTotal) / float64(m.matchRounds)
	}
	if m.gammaBound > 0 && m.header.N > 0 {
		s.GammaBound = m.gammaBound
		scale := m.gammaBound * float64(m.header.N) / 2
		if scale > 0 {
			s.MatchingVsBound = s.MeanMatching / scale
		}
	}
	s.Load = m.loadSummary()
	return s
}

func (m *Metrics) loadSummary() LoadSummary {
	if len(m.connCount) == 0 {
		return LoadSummary{}
	}
	minLoad := m.connCount[0]
	var total int64
	for _, c := range m.connCount {
		total += c
		if c < minLoad {
			minLoad = c
		}
	}
	mean := float64(total) / float64(len(m.connCount))
	imb := 0.0
	if mean > 0 {
		imb = float64(m.maxLoad) / mean
	}
	return LoadSummary{Min: minLoad, Max: m.maxLoad, Mean: mean, Imbalance: imb}
}

// curveBuf bounds the in-memory resolution of a streaming curve. It is twice
// CurvePoints so the final downsample to CurvePoints always has at least two
// source values per output bucket once pooling has started.
const curveBuf = 2 * CurvePoints

// curve is a bounded streaming max-pool over a per-round series: it holds at
// most curveBuf buckets, and when full it halves itself in place (max of
// adjacent pairs) and doubles the number of source rounds per bucket. Memory
// is O(1) in the number of rounds — the piece that lets Metrics summarize a
// multi-GB trace without retaining per-round state. For runs of at most
// CurvePoints rounds the stride never grows, so short-run summaries are
// bit-identical to the pre-streaming implementation.
type curve[T int | float64] struct {
	vals   []T
	stride int // source rounds per completed bucket (power of two)
	fill   int // source rounds folded into the trailing partial bucket
}

// add folds one round's value into the curve.
func (c *curve[T]) add(v T) {
	if c.fill > 0 {
		last := len(c.vals) - 1
		if v > c.vals[last] {
			c.vals[last] = v
		}
		c.fill++
		if c.fill == c.stride {
			c.fill = 0
		}
		return
	}
	if c.stride == 0 {
		c.stride = 1
	}
	if len(c.vals) == curveBuf {
		for i := 0; i < curveBuf/2; i++ {
			a, b := c.vals[2*i], c.vals[2*i+1]
			if b > a {
				a = b
			}
			c.vals[i] = a
		}
		c.vals = c.vals[:curveBuf/2]
		c.stride *= 2
	}
	c.vals = append(c.vals, v)
	if c.stride > 1 {
		c.fill = 1
	}
}
