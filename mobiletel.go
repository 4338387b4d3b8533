// Package mobiletel is a simulation and algorithms library for the mobile
// telephone model — the abstraction of smartphone peer-to-peer networks
// (Bluetooth LE, Wi-Fi Direct, Multipeer Connectivity) introduced by
// Ghaffari and Newport and studied in Newport's "Leader Election in a
// Smartphone Peer-to-Peer Network" (IPDPS 2017), which this repository
// reproduces.
//
// The package is a facade over the internal engine. It exposes:
//
//   - Topology constructors (Clique, LineOfStars, RandomRegular, ...) with
//     analytic Δ and vertex-expansion metadata;
//   - Schedule constructors describing how the topology evolves over time
//     under a stability factor τ (Static, Permuted, Churn, Waypoint, Merge);
//   - ElectLeader, running any of the paper's three leader election
//     algorithms (BlindGossip, BitConv, AsyncBitConv) to stabilization;
//   - SpreadRumor, running PUSH-PULL or PPUSH rumor spreading;
//   - Decide, Aggregate and GossipAll, the consensus, data aggregation and
//     all-to-all gossip problems the paper's conclusion names next;
//   - Experiments / RunExperiment, regenerating every table in
//     EXPERIMENTS.md.
//
// All five run entry points share one execution path, so every Options
// field applies to each of them (UIDs to ElectLeader only).
//
// A minimal election:
//
//	topo := mobiletel.RandomRegular(256, 8, 42)
//	res, err := mobiletel.ElectLeader(mobiletel.Static(topo), mobiletel.BlindGossip,
//	    mobiletel.Options{Seed: 1})
//	if err != nil { ... }
//	fmt.Println(res.Leader, res.Rounds)
package mobiletel

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mobiletel/internal/aggregate"
	"mobiletel/internal/consensus"
	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/experiment"
	"mobiletel/internal/fault"
	"mobiletel/internal/gossip"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/matching"
	"mobiletel/internal/obs"
	"mobiletel/internal/rumor"
	"mobiletel/internal/sim"
	"mobiletel/internal/stats"
	"mobiletel/internal/trace"
	"mobiletel/internal/xrand"
)

// Topology is a static network graph with analytic metadata.
type Topology struct {
	family gen.Family
}

// N returns the number of devices.
func (t Topology) N() int { return t.family.N() }

// MaxDegree returns Δ.
func (t Topology) MaxDegree() int { return t.family.MaxDegree() }

// Alpha returns the vertex expansion (exact for structured families,
// heuristic or NaN otherwise — see AlphaExact).
func (t Topology) Alpha() float64 { return t.family.Alpha }

// AlphaExact reports whether Alpha is an exact analytic value.
func (t Topology) AlphaExact() bool { return t.family.AlphaExact }

// Name returns the family name.
func (t Topology) Name() string { return t.family.Name }

// Topology constructors (see internal/graph/gen for the full semantics).

// Clique is the complete graph on n devices.
func Clique(n int) Topology { return Topology{gen.Clique(n)} }

// Path is the path graph on n devices.
func Path(n int) Topology { return Topology{gen.Path(n)} }

// Cycle is the cycle on n devices.
func Cycle(n int) Topology { return Topology{gen.Cycle(n)} }

// Star is the star with one hub and n-1 leaves.
func Star(n int) Topology { return Topology{gen.Star(n)} }

// LineOfStars is the paper's Section VI lower-bound construction.
func LineOfStars(stars, points int) Topology { return Topology{gen.LineOfStars(stars, points)} }

// SqrtLineOfStars is the canonical √n × √n instantiation.
func SqrtLineOfStars(side int) Topology { return Topology{gen.SqrtLineOfStars(side)} }

// RingOfCliques joins k cliques of size s in a ring.
func RingOfCliques(k, s int) Topology { return Topology{gen.RingOfCliques(k, s)} }

// RandomRegular is a random connected d-regular graph.
func RandomRegular(n, d int, seed uint64) Topology { return Topology{gen.RandomRegular(n, d, seed)} }

// ErdosRenyi is a connected G(n, p) sample.
func ErdosRenyi(n int, p float64, seed uint64) Topology { return Topology{gen.ErdosRenyi(n, p, seed)} }

// Grid is the rows×cols grid.
func Grid(rows, cols int) Topology { return Topology{gen.Grid(rows, cols)} }

// Torus is the rows×cols grid with wrap-around edges (4-regular mesh).
func Torus(rows, cols int) Topology { return Topology{gen.Torus(rows, cols)} }

// Expander is a random circulant d-regular expander (even d >= 4): a
// Hamiltonian base cycle plus random chord offsets. Its direct CSR
// construction makes it the million-node workhorse of the scale tier.
func Expander(n, d int, seed uint64) Topology { return Topology{gen.Expander(n, d, seed)} }

// Hypercube is the d-dimensional hypercube.
func Hypercube(d int) Topology { return Topology{gen.Hypercube(d)} }

// Barbell is two s-cliques joined by an edge.
func Barbell(s int) Topology { return Topology{gen.Barbell(s)} }

// BarabasiAlbert is a scale-free preferential-attachment mesh with
// attachment parameter m (heavy-tailed degrees; pronounced hubs).
func BarabasiAlbert(n, m int, seed uint64) Topology {
	return Topology{gen.BarabasiAlbert(n, m, seed)}
}

// CompleteBipartite is K_{a,b}.
func CompleteBipartite(a, b int) Topology { return Topology{gen.CompleteBipartite(a, b)} }

// Petersen is the Petersen graph (10 devices, 3-regular).
func Petersen() Topology { return Topology{gen.Petersen()} }

// Wheel is a hub connected to a cycle of n-1 devices.
func Wheel(n int) Topology { return Topology{gen.Wheel(n)} }

// Separated places two topologies side by side with no connecting edges —
// a disconnected network, used with Merge for the Section VIII
// self-stabilization scenario. Devices of a keep their indices; devices of
// b are shifted by a.N().
func Separated(a, b Topology) Topology { return Topology{gen.DisjointUnion(a.family, b.family)} }

// Schedule describes how the topology evolves over rounds.
type Schedule struct {
	sched dyngraph.Schedule
}

// Name returns a human-readable schedule label.
func (s Schedule) Name() string { return s.sched.Name() }

// Tau returns the schedule's stability factor.
func (s Schedule) Tau() int { return s.sched.Tau() }

// Static never changes the topology (τ = ∞).
func Static(t Topology) Schedule { return Schedule{dyngraph.NewStatic(t.family)} }

// Permuted relabels node positions with a fresh permutation every tau
// rounds — the adversarial mobility schedule (Δ and α preserved exactly).
func Permuted(t Topology, tau int, seed uint64) Schedule {
	return Schedule{dyngraph.NewPermuted(t.family, tau, seed)}
}

// Churn rewires swaps random edge pairs (degree-preserving) every tau rounds.
func Churn(t Topology, tau, swaps int, seed uint64) Schedule {
	return Schedule{dyngraph.NewChurn(t.family, tau, swaps, seed)}
}

// Waypoint is random-waypoint mobility on the unit square with the given
// communication radius and per-epoch speed.
func Waypoint(n int, radius, speed float64, tau int, seed uint64) Schedule {
	return Schedule{dyngraph.NewWaypoint(n, radius, speed, tau, seed)}
}

// Merge serves schedule a until switchRound, then schedule b — the
// self-stabilization scenario of Section VIII.
func Merge(a, b Schedule, switchRound int) Schedule {
	return Schedule{dyngraph.NewSwitch(a.sched, b.sched, switchRound)}
}

// Algorithm selects a leader election algorithm from the paper.
type Algorithm int

const (
	// BlindGossip: Section VI, b = 0, O((1/α)Δ²log²n) rounds.
	BlindGossip Algorithm = iota
	// BitConv: Section VII, b = 1, synchronized starts,
	// O((1/α)Δ^{1/τ̂}τ̂log⁵n) rounds.
	BitConv
	// AsyncBitConv: Section VIII, b = loglog n + O(1), asynchronous
	// activations, self-stabilizing.
	AsyncBitConv
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case BlindGossip:
		return "blindgossip"
	case BitConv:
		return "bitconv"
	case AsyncBitConv:
		return "asyncbitconv"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves a name produced by Algorithm.String.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "blindgossip":
		return BlindGossip, nil
	case "bitconv":
		return BitConv, nil
	case "asyncbitconv":
		return AsyncBitConv, nil
	default:
		return 0, fmt.Errorf("mobiletel: unknown algorithm %q (want blindgossip|bitconv|asyncbitconv)", s)
	}
}

// Options configures an execution. Every field applies to every entry point
// (ElectLeader, SpreadRumor, Decide, Aggregate and GossipAll) except UIDs,
// which only ElectLeader reads.
type Options struct {
	// Seed drives all randomness; runs are deterministic in it.
	Seed uint64
	// MaxRounds aborts a run that has not stabilized (default 10M).
	MaxRounds int
	// Activations gives each device's activation round (1-based); nil means
	// all start at round 1. A device takes no part in rounds before its
	// own, and no run stops before the last activation. Of the election
	// algorithms only AsyncBitConv (and Decide, which runs on it) is built
	// for unsynchronized starts.
	Activations []int
	// Workers controls engine parallelism (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// UIDs optionally fixes ElectLeader's device UIDs; nil draws unique
	// random UIDs from Seed. Must be distinct and nonzero when provided.
	// The other entry points ignore it.
	UIDs []uint64
	// OnRound, when non-nil, receives (round, connections) after every
	// executed round — e.g. to render a convergence curve.
	OnRound func(round, connections int)
	// TraceTo, when non-nil, receives a structured JSONL event trace of the
	// run (schema mtmtrace/v1 — proposals, accepts, rejects, connections,
	// deliveries, and protocol state transitions; inspect or diff it with
	// cmd/mtmtrace). Tracing works at any Workers setting and the trace is
	// byte-identical across worker counts: parallel phase bodies emit into
	// per-worker buffers merged in chunk order at each barrier, reproducing
	// the sequential ascending-device event order exactly. Fault-injected
	// runs included — fault draws are addressed by (device, round), so their
	// events hold the same place in the stream at any worker count. A run
	// with no trace configured pays zero overhead.
	TraceTo io.Writer
	// TraceSample, when > 1, keeps only events of rounds divisible by it
	// (a deterministic round%N filter), so a traced large run produces a
	// bounded artifact. Applies to TraceTo only; metrics stay exact.
	TraceSample int
	// TraceTypes, when non-empty, keeps only events of the named types
	// (e.g. "connect", "transition"; see the mtmtrace/v1 schema). Composes
	// with TraceSample. Applies to TraceTo only.
	TraceTypes []string
	// MetricsTo, when non-nil, receives a JSON run-metrics summary (schema
	// mtmtrace-metrics/v1: rounds to convergence, acceptance rate, matching
	// sizes vs the Lemma V.1 γ bound, load imbalance, transition counts)
	// after the run. Aggregation is streaming and O(1) in run length, and —
	// like TraceTo — works at any Workers setting.
	MetricsTo io.Writer
	// PhaseProfTo, when non-nil, receives an mtmprof/v1 phase-timing report
	// (JSON) after the run: per-phase wall time, per-worker busy time,
	// chunk-imbalance ratio, and rounds/sec. Render it with mtmtrace prof.
	// The profiler's monotonic clock is injected here in the facade; the
	// engine never reads wall time.
	PhaseProfTo io.Writer
	// Classical runs the execution under *classical* telephone model
	// semantics (a device may serve unboundedly many incoming connections
	// per round) — the related-work baseline, not the paper's model. See
	// experiment E12 for the gap this exposes.
	Classical bool
	// Faults, when non-nil, injects deterministic faults (crash/recover
	// churn, message loss, advertisement corruption, adversarial state
	// resets) into the execution. Faulted runs remain a pure function of
	// (Seed, schedule, algorithm, Options, Faults) at any worker count.
	// A crashed device keeps stale state, so every entry point evaluates
	// its stop condition over the up devices only, and ElectLeader and
	// Decide report the first up device's state. GossipAll and Aggregate's
	// Mean, Count and Sum still measure against the whole network (all n
	// rumors, the true aggregate), so a device that crashes holding a share
	// no up device has holds the run until it recovers, or to MaxRounds.
	Faults *FaultPlan
	// Check audits every round against the engine's safety invariants
	// (proposal conservation, matching symmetry, down-device silence,
	// advertisement domain bounds) and panics on the first violation. An
	// O(n + connections) debugging aid for faulted runs, off by default.
	Check bool
}

// FaultEvent schedules a scripted crash or recovery of one device at the
// start of one round (rounds are 1-based).
type FaultEvent struct {
	Round  int
	Device int
}

// FaultBurst schedules an adversarial state reset of a set of devices at
// the start of one round — the Section VIII self-stabilization adversary.
type FaultBurst struct {
	Round   int
	Devices []int
}

// FaultPartition schedules a seed-derived network partition: from round
// Start (inclusive) to round Heal (exclusive; 0 = never heals), the devices
// are split into Parts components and every connection crossing a component
// boundary deterministically fails.
type FaultPartition struct {
	Start int
	Heal  int
	Parts int
}

// ParsePartitions parses a comma-separated list of start:heal:parts triples
// (the CLI -partition syntax), e.g. "10:40:2" or "10:40:2,60:0:3". Heal 0
// means the partition never heals. An empty string is no partitions. Each
// spec must be exactly three integers; spaces around them are ignored.
func ParsePartitions(s string) ([]FaultPartition, error) {
	if s == "" {
		return nil, nil
	}
	var out []FaultPartition
	for _, spec := range strings.Split(s, ",") {
		fields := strings.Split(spec, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("mobiletel: bad partition %q (want start:heal:parts)", spec)
		}
		var v [3]int
		for i, f := range fields {
			x, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("mobiletel: bad partition %q (want start:heal:parts): %v", spec, err)
			}
			v[i] = x
		}
		out = append(out, FaultPartition{Start: v[0], Heal: v[1], Parts: v[2]})
	}
	return out, nil
}

// FaultPlan mirrors internal/fault.Plan: a deterministic, seed-derived
// description of the faults to inject. The zero value injects nothing.
type FaultPlan struct {
	// Seed derives the fault randomness, independently of Options.Seed, so
	// the same fault pattern can be replayed against different executions.
	Seed uint64
	// CrashRate / RecoverRate are per-round per-device probabilities of an
	// up device crashing and a down device recovering. MaxDown caps the
	// random churn (scripted crashes are exempt); 0 means no cap.
	CrashRate   float64
	RecoverRate float64
	MaxDown     int
	// ResetOnRecover models crash-with-amnesia: a recovering device's
	// protocol state is reset as if freshly started.
	ResetOnRecover bool
	// ProposalLoss / ConnLoss are per-message loss probabilities for
	// connection proposals and accepted connections; TagFlipRate is the
	// per-(device, round) probability of one advertisement bit flipping.
	ProposalLoss float64
	ConnLoss     float64
	TagFlipRate  float64
	// Scripted faults, applied at the start of their round.
	Crashes     []FaultEvent
	Recoveries  []FaultEvent
	Corruptions []FaultBurst
	// Partitions schedules network splits with optional heal rounds.
	Partitions []FaultPartition
}

// compile converts the public plan into a validated engine injector.
func (p *FaultPlan) compile(n int) (*fault.Injector, error) {
	if p == nil {
		return nil, nil
	}
	plan := fault.Plan{
		Seed:           p.Seed,
		CrashRate:      p.CrashRate,
		RecoverRate:    p.RecoverRate,
		MaxDown:        p.MaxDown,
		ResetOnRecover: p.ResetOnRecover,
		ProposalLoss:   p.ProposalLoss,
		ConnLoss:       p.ConnLoss,
		TagFlipRate:    p.TagFlipRate,
	}
	for _, e := range p.Crashes {
		plan.Crashes = append(plan.Crashes, fault.NodeRound{Round: e.Round, Node: e.Device})
	}
	for _, e := range p.Recoveries {
		plan.Recoveries = append(plan.Recoveries, fault.NodeRound{Round: e.Round, Node: e.Device})
	}
	for _, b := range p.Corruptions {
		plan.Corruptions = append(plan.Corruptions, fault.Burst{Round: b.Round, Nodes: b.Devices})
	}
	for _, pt := range p.Partitions {
		plan.Partitions = append(plan.Partitions, fault.Partition{Start: pt.Start, Heal: pt.Heal, Parts: pt.Parts})
	}
	return fault.NewInjector(plan, n)
}

// run is the one execution path behind every entry point. It compiles
// o.Faults, attaches the observers o names, runs protocols over s until stop
// holds over the up devices, and writes the metrics and phase profile. It
// returns the first up device, whose state the entry point reports.
func (o Options) run(s Schedule, protocols []sim.Protocol, tagBits int, stop sim.StopCondition) (sim.Result, int, error) {
	n := s.sched.N()
	injector, err := o.Faults.compile(n)
	if err != nil {
		return sim.Result{}, 0, err
	}
	out, err := o.outputs()
	if err != nil {
		return sim.Result{}, 0, err
	}
	var observer func(sim.RoundStats)
	if o.OnRound != nil {
		observer = func(st sim.RoundStats) { o.OnRound(st.Round, st.Connections) }
	}
	eng, err := sim.New(s.sched, protocols, sim.Config{
		Seed:        o.Seed,
		TagBits:     tagBits,
		MaxRounds:   o.MaxRounds,
		Activations: o.Activations,
		Workers:     o.Workers,
		Observer:    observer,
		Classical:   o.Classical,
		Sink:        out.sink,
		Profiler:    out.prof,
		Faults:      injector,
		Check:       o.Check,
	})
	if err != nil {
		return sim.Result{}, 0, err
	}
	defer eng.Close()
	res, err := eng.Run(sim.UpOnly(injector, stop))
	if err != nil {
		return sim.Result{}, 0, err
	}
	// The exact cut-matching number γ is computable for a static schedule
	// small enough for matching.GammaExact's exhaustive cut enumeration.
	if out.metrics != nil && s.sched.Tau() == math.MaxInt && n >= 2 && n <= 16 {
		out.metrics.SetGammaBound(matching.GammaExact(s.sched.GraphAt(1)))
	}
	up := 0
	for injector != nil && injector.Down(up) {
		up++ // the stop condition held, so some device is up
	}
	return res, up, out.write(o)
}

// outputs are a run's observers: the event sink behind TraceTo and
// MetricsTo, the trace writer and metrics aggregator it feeds, and the
// phase profiler behind PhaseProfTo. A field is nil when its destination is
// unset.
type outputs struct {
	sink    obs.Sink
	jsonl   *obs.JSONL
	metrics *obs.Metrics
	prof    *obs.Profiler
}

// outputs builds the observers for o.TraceTo, o.MetricsTo and
// o.PhaseProfTo. TraceSample/TraceTypes filter the JSONL trace only — the
// metrics aggregator always sees the full stream, so summaries of sampled
// traces stay exact. The profiler gets a monotonic clock here: the engine
// never reads wall time (the norand contract keeps internal/ clock-free;
// the facade is where time enters).
func (o Options) outputs() (outputs, error) {
	var out outputs
	var sinks []obs.Sink
	if o.TraceTo != nil {
		out.jsonl = obs.NewJSONL(o.TraceTo)
		var trace obs.Sink = out.jsonl
		if o.TraceSample > 1 || len(o.TraceTypes) > 0 {
			types := make([]obs.Type, 0, len(o.TraceTypes))
			for _, name := range o.TraceTypes {
				t, err := obs.ParseType(name)
				if err != nil {
					return outputs{}, fmt.Errorf("mobiletel: trace type filter: %w", err)
				}
				types = append(types, t)
			}
			trace = obs.NewFilter(out.jsonl, o.TraceSample, types)
		}
		sinks = append(sinks, trace)
	}
	if o.MetricsTo != nil {
		out.metrics = obs.NewMetrics()
		sinks = append(sinks, out.metrics)
	}
	switch len(sinks) {
	case 1:
		out.sink = sinks[0]
	case 2:
		out.sink = obs.Tee(sinks...)
	}
	if o.PhaseProfTo != nil {
		base := time.Now()
		out.prof = obs.NewProfiler(func() int64 { return int64(time.Since(base)) })
	}
	return out, nil
}

// write finalizes the outputs after a run: it surfaces any latched trace
// write error and renders the metrics summary to o.MetricsTo and the
// mtmprof/v1 report to o.PhaseProfTo, both as indented JSON.
func (out outputs) write(o Options) error {
	if out.jsonl != nil {
		if err := out.jsonl.Err(); err != nil {
			return fmt.Errorf("mobiletel: writing trace: %w", err)
		}
	}
	if out.metrics != nil {
		summary := out.metrics.Summary()
		if err := writeJSON(o.MetricsTo, &summary); err != nil {
			return fmt.Errorf("mobiletel: writing metrics: %w", err)
		}
	}
	if out.prof != nil {
		rep := out.prof.Report()
		if err := writeJSON(o.PhaseProfTo, &rep); err != nil {
			return fmt.Errorf("mobiletel: writing phase profile: %w", err)
		}
	}
	return nil
}

// writeJSON encodes v to w as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ElectionResult reports a stabilized leader election.
type ElectionResult struct {
	// Leader is the UID every device's leader variable stabilized to.
	Leader uint64
	// Rounds is the stabilization round.
	Rounds int
	// Connections is the total number of peer-to-peer connections used.
	Connections int64
	// UIDs is the UID assignment used (index = device).
	UIDs []uint64
}

// ErrNotStabilized is returned when MaxRounds elapses first.
var ErrNotStabilized = sim.ErrNotStabilized

// ElectLeader runs the chosen algorithm over the schedule until every
// device's leader variable agrees — every up device's, when Options.Faults
// can crash devices.
func ElectLeader(s Schedule, algo Algorithm, opts Options) (ElectionResult, error) {
	n := s.sched.N()
	if n < 1 {
		return ElectionResult{}, errors.New("mobiletel: empty network")
	}
	uids := opts.UIDs
	if uids == nil {
		uids = core.UniqueUIDs(n, opts.Seed^0x51ede75)
	} else if len(uids) != n {
		return ElectionResult{}, fmt.Errorf("mobiletel: %d UIDs for %d devices", len(uids), n)
	}

	var protocols []sim.Protocol
	tagBits := 0
	params := core.DefaultBitConvParams(n, s.sched.MaxDegree())
	switch algo {
	case BlindGossip:
		protocols = core.NewBlindGossipNetwork(uids)
	case BitConv:
		protocols, _ = core.NewBitConvNetwork(uids, params, opts.Seed^0xb17c0)
		tagBits = 1
	case AsyncBitConv:
		protocols, _ = core.NewAsyncBitConvNetwork(uids, params, opts.Seed^0xa57c0)
		tagBits = core.TagBitsNeeded(params)
	default:
		return ElectionResult{}, fmt.Errorf("mobiletel: unknown algorithm %v", algo)
	}

	res, up, err := opts.run(s, protocols, tagBits, sim.AllLeadersEqual)
	if err != nil {
		return ElectionResult{}, err
	}
	return ElectionResult{
		Leader:      protocols[up].Leader(),
		Rounds:      res.StabilizedRound,
		Connections: res.Connections,
		UIDs:        uids,
	}, nil
}

// RumorStrategy selects a rumor spreading strategy from Section V.
type RumorStrategy int

const (
	// PushPull: b = 0 classical strategy (Corollary VI.6).
	PushPull RumorStrategy = iota
	// PPush: b = 1 productive PUSH (Theorem V.2).
	PPush
)

// String names the strategy.
func (r RumorStrategy) String() string {
	if r == PushPull {
		return "pushpull"
	}
	return "ppush"
}

// RumorResult reports a completed rumor spreading run.
type RumorResult struct {
	// Rounds is the round by which every device knew the rumor.
	Rounds int
	// Connections is the total number of connections used.
	Connections int64
}

// SpreadRumor runs the strategy from the given source devices until the
// whole network is informed.
func SpreadRumor(s Schedule, strategy RumorStrategy, sources []int, opts Options) (RumorResult, error) {
	n := s.sched.N()
	if len(sources) == 0 {
		return RumorResult{}, errors.New("mobiletel: no rumor sources")
	}
	informed := make(map[int]bool, len(sources))
	for _, src := range sources {
		if src < 0 || src >= n {
			return RumorResult{}, fmt.Errorf("mobiletel: source %d out of range [0,%d)", src, n)
		}
		informed[src] = true
	}
	var protocols []sim.Protocol
	tagBits := 0
	switch strategy {
	case PushPull:
		protocols = rumor.NewPushPullNetwork(n, informed)
	case PPush:
		protocols = rumor.NewPPushNetwork(n, informed)
		tagBits = 1
	default:
		return RumorResult{}, fmt.Errorf("mobiletel: unknown strategy %v", strategy)
	}
	res, _, err := opts.run(s, protocols, tagBits, rumor.AllInformed)
	if err != nil {
		return RumorResult{}, err
	}
	return RumorResult{Rounds: res.StabilizedRound, Connections: res.Connections}, nil
}

// ExperimentInfo describes one registered reproduction experiment.
type ExperimentInfo struct {
	ID    string
	Claim string
}

// Experiments lists every registered experiment (DESIGN.md §4).
func Experiments() []ExperimentInfo {
	all := experiment.All()
	out := make([]ExperimentInfo, len(all))
	for i, e := range all {
		out[i] = ExperimentInfo{ID: e.ID, Claim: e.Claim}
	}
	return out
}

// ExperimentOptions configures RunExperiment.
type ExperimentOptions struct {
	Seed   uint64
	Trials int  // 0 = experiment default
	Quick  bool // reduced scales
	CSV    bool // render CSV instead of an aligned text table
	// Progress, when non-nil, receives throttled live progress lines
	// (trials/points completed, elapsed time, ETA) while trial batches run —
	// point it at os.Stderr for long experiments.
	Progress io.Writer
	// TraceTo, when non-nil, receives a JSONL event trace (schema
	// mtmtrace/v1) of the experiment's first trial. E4, which runs no
	// engine, leaves it empty.
	TraceTo io.Writer
	// MetricsTo, when non-nil, receives a JSON metrics summary (schema
	// mtmtrace-metrics/v1) of the experiment's first trial.
	MetricsTo io.Writer
	// PhaseProfTo, when non-nil, receives an mtmprof/v1 phase-timing report
	// of the experiment's first trial (the same trial TraceTo observes);
	// Progress lines additionally show the hottest phases while it runs.
	PhaseProfTo io.Writer
	// CheckpointDir, when non-empty, enables crash-safe per-trial
	// checkpointing: completed trial results are appended to
	// <CheckpointDir>/<id>.ckpt.jsonl and replayed on the next run with the
	// same (id, seed, trials, quick) key, producing a bit-identical table.
	// Stale checkpoints (different key) are rejected with an error. E4, A2,
	// E5 and E11 record no cells and re-run in full: E4 runs no trials, and
	// A2, E5 and E11 need per-trial measurements that a cell cannot hold.
	CheckpointDir string
	// DieAfter, when > 0, kills the process (exit 3) after that many newly
	// recorded checkpoint cells. Test hook for the resume path; requires
	// CheckpointDir.
	DieAfter int
	// Interrupt, when non-nil, aborts the sweep gracefully once the channel
	// is closed: in-flight trials drain (and checkpoint), no new trials
	// start, and RunExperiment returns ErrInterrupted. E4, which runs no
	// trials, ignores it.
	Interrupt <-chan struct{}
}

// ErrInterrupted is returned by RunExperiment when the sweep was aborted via
// ExperimentOptions.Interrupt. Completed trials were checkpointed (if
// CheckpointDir was set) and a rerun with the same options resumes from them.
var ErrInterrupted = experiment.ErrInterrupted

// RunExperiment regenerates one experiment's table and returns it rendered.
func RunExperiment(id string, opts ExperimentOptions) (string, error) {
	e, ok := experiment.ByID(id)
	if !ok {
		return "", fmt.Errorf("mobiletel: unknown experiment %q", id)
	}
	o := Options{TraceTo: opts.TraceTo, MetricsTo: opts.MetricsTo, PhaseProfTo: opts.PhaseProfTo}
	out, err := o.outputs()
	if err != nil {
		return "", err
	}
	var ck *experiment.Checkpoint
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return "", fmt.Errorf("mobiletel: creating checkpoint dir: %w", err)
		}
		var err error
		ck, err = experiment.OpenCheckpoint(
			filepath.Join(opts.CheckpointDir, id+".ckpt.jsonl"),
			experiment.CheckpointKey{ID: id, Seed: opts.Seed, Trials: opts.Trials, Quick: opts.Quick},
		)
		if err != nil {
			return "", err
		}
		// Recorded cells are flushed per Record; a close error here cannot
		// lose them.
		defer func() { _ = ck.Close() }()
		ck.SetDieAfter(opts.DieAfter)
	}
	// The harness never reads the clock itself (reproducibility); inject it
	// here so progress lines can show elapsed time and an ETA.
	table, err := e.Run(experiment.Config{
		Seed:       opts.Seed,
		Trials:     opts.Trials,
		Quick:      opts.Quick,
		Progress:   opts.Progress,
		Now:        time.Now,
		Sink:       out.sink,
		Profiler:   out.prof,
		Checkpoint: ck,
		Interrupt:  opts.Interrupt,
	})
	if err != nil {
		return "", err
	}
	if err := out.write(o); err != nil {
		return "", err
	}
	if opts.CSV {
		var sb strings.Builder
		if err := table.WriteCSV(&sb); err != nil {
			return "", err
		}
		return sb.String(), nil
	}
	return table.Text(), nil
}

// Decide runs single-value consensus over the schedule: each device proposes
// a value, and the network agrees on the proposal of the elected leader.
// Validity (the decision is some device's proposal) and agreement are
// inherited from leader election; the substrate is the non-synchronized bit
// convergence algorithm, so staggered Options.Activations are safe.
func Decide(s Schedule, proposals []uint64, opts Options) (DecisionResult, error) {
	n := s.sched.N()
	if len(proposals) != n {
		return DecisionResult{}, fmt.Errorf("mobiletel: %d proposals for %d devices", len(proposals), n)
	}
	params := core.DefaultBitConvParams(n, s.sched.MaxDegree())
	protocols, _ := consensus.NewNetwork(proposals, params, opts.Seed^0xdec1de)
	res, up, err := opts.run(s, protocols, consensus.TagBits(params), consensus.AllAgree)
	if err != nil {
		return DecisionResult{}, err
	}
	winner := protocols[up].(*consensus.Proposer)
	return DecisionResult{Value: winner.Value(), Leader: winner.Leader(), Rounds: res.StabilizedRound}, nil
}

// DecisionResult reports a completed consensus.
type DecisionResult struct {
	// Value is the agreed value (the leader's proposal).
	Value uint64
	// Leader is the UID of the device whose proposal won.
	Leader uint64
	// Rounds is the round by which all devices agreed.
	Rounds int
}

// AggregateKind selects what Aggregate computes.
type AggregateKind int

const (
	// Min converges to the exact minimum input (blind-gossip spread).
	Min AggregateKind = iota
	// Max converges to the exact maximum input.
	Max
	// Mean converges to the average input via pairwise mass averaging.
	Mean
	// Count estimates the network size (inputs are ignored).
	Count
	// Sum estimates the total of the inputs.
	Sum
)

// String names the aggregate.
func (k AggregateKind) String() string {
	switch k {
	case Min:
		return "min"
	case Max:
		return "max"
	case Mean:
		return "mean"
	case Count:
		return "count"
	case Sum:
		return "sum"
	default:
		return fmt.Sprintf("AggregateKind(%d)", int(k))
	}
}

// AggregateResult reports a completed aggregation.
type AggregateResult struct {
	// Estimates holds each device's final estimate.
	Estimates []float64
	// Rounds is the round at which the stop criterion held.
	Rounds int
}

// Aggregate computes a network-wide aggregate of the inputs. Min and Max
// run until all devices hold the exact answer; Mean, Count, and Sum run
// until every device's estimate is within rel of the true value (the truth
// is computed locally from inputs — this is a simulation, after all).
// For Count, inputs may be nil.
func Aggregate(s Schedule, kind AggregateKind, inputs []float64, rel float64, opts Options) (AggregateResult, error) {
	n := s.sched.N()
	if kind != Count && len(inputs) != n {
		return AggregateResult{}, fmt.Errorf("mobiletel: %d inputs for %d devices", len(inputs), n)
	}
	var protocols []sim.Protocol
	var stop sim.StopCondition
	switch kind {
	case Min, Max:
		protocols = make([]sim.Protocol, n)
		for i := range protocols {
			if kind == Min {
				protocols[i] = aggregate.NewMin(inputs[i])
			} else {
				protocols[i] = aggregate.NewMax(inputs[i])
			}
		}
		stop = sim.AllLeadersEqual
	case Mean:
		truth := 0.0
		for _, x := range inputs {
			truth += x
		}
		truth /= float64(n)
		protocols = aggregate.NewMeanNetwork(inputs)
		stop = aggregate.WithinTolerance(truth, rel)
	case Count:
		protocols = aggregate.NewCountNetwork(n, 0)
		stop = aggregate.WithinTolerance(float64(n), rel)
	case Sum:
		truth := 0.0
		for _, x := range inputs {
			truth += x
		}
		protocols = aggregate.NewSumNetwork(inputs, 0)
		stop = aggregate.WithinTolerance(truth, rel)
	default:
		return AggregateResult{}, fmt.Errorf("mobiletel: unknown aggregate %v", kind)
	}

	res, _, err := opts.run(s, protocols, 0, stop)
	if err != nil {
		return AggregateResult{}, err
	}
	estimates := make([]float64, n)
	for i, p := range protocols {
		switch q := p.(type) {
		case *aggregate.Extremum:
			estimates[i] = q.Estimate()
		case *aggregate.Averager:
			estimates[i] = q.Estimate()
		}
	}
	return AggregateResult{Estimates: estimates, Rounds: res.StabilizedRound}, nil
}

// GossipResult reports a completed all-to-all gossip run.
type GossipResult struct {
	// Rounds is the round by which every device knew every rumor.
	Rounds int
	// Connections is the total number of connections used.
	Connections int64
}

// GossipAll runs all-to-all rumor spreading: every device starts with one
// rumor and the run completes when every device knows all n rumors (one of
// the follow-on problems from the paper's conclusion). Each connection
// carries one rumor in each direction, respecting the O(1)-UID budget.
func GossipAll(s Schedule, opts Options) (GossipResult, error) {
	res, _, err := opts.run(s, gossip.NewNetwork(s.sched.N()), 0, gossip.AllComplete)
	if err != nil {
		return GossipResult{}, err
	}
	return GossipResult{Rounds: res.StabilizedRound, Connections: res.Connections}, nil
}

// SweepRow is one aggregated row of a RunSweep result.
type SweepRow struct {
	Label  string
	Trials int
	Median float64
	P90    float64
	Mean   float64
	Min    float64
	Max    float64
}

// RunSweep is the building block for custom parameter studies: for every
// label it runs `trials` independent trials of fn and aggregates the
// returned round counts. Every (label, trial) runs on the experiment
// harness's trial pool, GOMAXPROCS at a time, with the derived seed
// xrand.Mix3(seed, label index, trial). fn must be safe for concurrent
// calls; the first error in (label, trial) order aborts the sweep.
//
//	rows, _ := mobiletel.RunSweep([]string{"tau=1", "tau=8"}, 20, 1,
//	    func(label string, seed uint64) (int, error) {
//	        tau := 1
//	        if label == "tau=8" { tau = 8 }
//	        res, err := mobiletel.ElectLeader(
//	            mobiletel.Permuted(topo, tau, seed), mobiletel.BitConv,
//	            mobiletel.Options{Seed: seed})
//	        return res.Rounds, err
//	    })
func RunSweep(labels []string, trials int, seed uint64, fn func(label string, trialSeed uint64) (int, error)) ([]SweepRow, error) {
	if trials < 1 {
		return nil, errors.New("mobiletel: RunSweep needs trials >= 1")
	}
	rounds, err := experiment.RunCells(experiment.Config{}, len(labels), trials, func(li, trial int) (int, error) {
		r, err := fn(labels[li], xrand.Mix3(seed, uint64(li), uint64(trial)))
		if err != nil {
			return 0, fmt.Errorf("mobiletel: sweep %q trial %d: %w", labels[li], trial, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(labels))
	for li, label := range labels {
		s := stats.IntSummary(rounds[li])
		rows[li] = SweepRow{
			Label: label, Trials: trials,
			Median: s.Median, P90: s.P90, Mean: s.Mean, Min: s.Min, Max: s.Max,
		}
	}
	return rows, nil
}

// FormatSweep renders sweep rows as an aligned text table.
func FormatSweep(title string, rows []SweepRow) string {
	table := trace.NewTable(title, "label", "trials", "median", "p90", "mean", "min", "max")
	for _, r := range rows {
		table.AddRow(r.Label, r.Trials, r.Median, r.P90, r.Mean, r.Min, r.Max)
	}
	return table.Text()
}
