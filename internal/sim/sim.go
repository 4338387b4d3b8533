// Package sim is the mobile telephone model engine — an executable,
// bit-faithful implementation of the abstract model of Section III of the
// paper.
//
// Each synchronous round proceeds in five steps:
//
//  1. Topology: the round's graph G_r comes from a dyngraph.Schedule.
//  2. Advertise: every active node chooses a b-bit tag (before seeing its
//     neighbors, matching the model: tags are chosen at the beginning of the
//     round; scanning then reveals neighbor ids and tags).
//  3. Decide: every active node either sends one connection proposal to one
//     neighbor or elects to receive. A sender can never accept.
//  4. Accept: a receiver with at least one incoming proposal accepts one,
//     chosen uniformly at random (distributionally identical to the paper's
//     selection-permutation device).
//  5. Exchange: each connected pair trades one bounded message — at most
//     MaxUIDs UIDs plus 64 auxiliary bits, enforcing the problem statement's
//     O(1)-UIDs / O(polylog N)-bits connection budget.
//
// The engine is deterministic: an execution is a pure function of (seed,
// schedule, protocol, config). Per-node per-round randomness streams are
// derived independently (xrand.Derive), on the node's first draw of the
// round, so the parallel executor is bit-identical to the sequential one.
package sim

import (
	"errors"
	"fmt"
	"runtime"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/fault"
	"mobiletel/internal/graph"
	"mobiletel/internal/invariant"
	"mobiletel/internal/obs"
	"mobiletel/internal/xrand"
)

// Message is the bounded payload exchanged over one connection: at most
// MaxUIDs opaque UIDs plus 64 auxiliary bits.
type Message struct {
	UIDs []uint64
	Aux  uint64
}

// Context is the per-node view the engine passes to protocol callbacks. It
// exposes the node's identity, its private randomness for the round
// (RNG), and the scan results (neighbor ids and tags). Contexts are only
// valid during the callback they are passed to.
type Context struct {
	Round int
	Node  int32

	e    *Engine
	g    *graph.Graph
	tags []uint64
	act  []bool   // activity per node (nil means all active)
	sink obs.Sink // event sink, nil when tracing is disabled
	nbr  []int32  // candidate scratch for the neighbor picks, grown once
}

// RNG returns the node's private random stream for the round: the
// (seed, node, round) stream, derived on the node's first draw of the
// round, so a round in which the node draws nothing costs no derivation.
// Every draw a protocol makes must come from it.
//
//mtmlint:hotpath
func (c *Context) RNG() *xrand.RNG { return c.e.nodeRNG(c.Node) }

// EmitTransition publishes a protocol state transition (leader-estimate
// change, bit flip, phase change, ...) to the configured observability sink.
// It is a cheap no-op when no sink is configured, so protocols can call it
// unconditionally at every transition site without perturbing the engine's
// zero-allocation steady state.
//
//mtmlint:hotpath
func (c *Context) EmitTransition(kind obs.Kind, old, new uint64) {
	if c.sink == nil {
		return
	}
	c.sink.Event(obs.Event{
		Type: obs.TypeTransition, Kind: kind, Round: c.Round,
		Node: c.Node, Peer: obs.NoNode, A: old, B: new,
	})
}

// Degree returns the number of active neighbors visible in this round's scan.
//
//mtmlint:hotpath
func (c *Context) Degree() int {
	if c.act == nil {
		return c.g.Degree(int(c.Node))
	}
	d := 0
	for _, v := range c.g.Neighbors(int(c.Node)) {
		if c.act[v] {
			d++
		}
	}
	return d
}

// Neighbors iterates over the active neighbors, invoking fn with each
// neighbor's id and advertised tag. Iteration is in ascending id order.
//
//mtmlint:hotpath
func (c *Context) Neighbors(fn func(id int32, tag uint64)) {
	for _, v := range c.g.Neighbors(int(c.Node)) {
		if c.act == nil || c.act[v] {
			fn(v, c.tags[v])
		}
	}
}

// RandomNeighbor returns a uniformly random active neighbor, or ok=false if
// the node has none this round.
//
//mtmlint:hotpath
func (c *Context) RandomNeighbor() (id int32, ok bool) {
	nbrs := c.g.Neighbors(int(c.Node))
	if c.act == nil {
		// Everyone is active: index the adjacency list directly.
		if len(nbrs) == 0 {
			return 0, false
		}
		return nbrs[c.RNG().Intn(len(nbrs))], true
	}
	cand, act := c.scratch(len(nbrs)), c.act
	k := 0
	for _, v := range nbrs {
		cand[k] = v
		if act[v] {
			k++
		}
	}
	return c.pick(cand[:k])
}

// RandomNeighborWithTag returns a uniformly random active neighbor
// advertising tag, or ok=false if none does: one scan collects the
// candidates, in ascending id order, and one Intn over their count picks
// the winner.
//
//mtmlint:hotpath
func (c *Context) RandomNeighborWithTag(tag uint64) (id int32, ok bool) {
	nbrs := c.g.Neighbors(int(c.Node))
	cand, tags, act := c.scratch(len(nbrs)), c.tags, c.act
	k := 0
	// Every neighbor is written to cand[k] and k advances only on a match,
	// which the compiler turns into a conditional move: tag matches are
	// close to coin flips, and a branch on them would mispredict.
	if act == nil {
		for _, v := range nbrs {
			cand[k] = v
			if tags[v] == tag {
				k++
			}
		}
	} else {
		for _, v := range nbrs {
			cand[k] = v
			if tags[v] == tag && act[v] {
				k++
			}
		}
	}
	return c.pick(cand[:k])
}

// scratch returns the Context's candidate buffer sized for deg neighbors,
// growing it to the largest degree scanned so far.
//
//mtmlint:hotpath
func (c *Context) scratch(deg int) []int32 {
	if cap(c.nbr) < deg {
		c.nbr = make([]int32, deg)
	}
	return c.nbr[:deg]
}

// pick draws the winner among cand with the node's stream.
//
//mtmlint:hotpath
func (c *Context) pick(cand []int32) (id int32, ok bool) {
	if len(cand) == 0 {
		return 0, false
	}
	return cand[c.RNG().Intn(len(cand))], true
}

// Protocol is the per-node state machine an algorithm implements. The engine
// owns one Protocol instance per node and invokes the callbacks in a fixed
// order each round; all randomness must come from ctx.RNG() for
// determinism.
type Protocol interface {
	// Advertise returns the node's tag for the round. The engine verifies it
	// fits in Config.TagBits. Called before the node can see its neighbors,
	// so implementations must not call ctx.Neighbors here.
	Advertise(ctx *Context) uint64

	// Decide inspects the scan (ctx.Neighbors/ctx.Degree) and either returns
	// (target, true) to propose a connection to neighbor `target`, or
	// (_, false) to receive. Proposing to a non-neighbor is an engine error.
	Decide(ctx *Context) (target int32, propose bool)

	// Outgoing produces the message for a connection with peer. It is called
	// exactly once per established connection, before any Deliver.
	Outgoing(ctx *Context, peer int32) Message

	// Deliver hands the node the peer's message for an established
	// connection.
	Deliver(ctx *Context, peer int32, msg Message)

	// EndRound is called once per round after all exchanges complete.
	EndRound(ctx *Context)

	// Leader returns the node's current leader variable (a UID).
	Leader() uint64
}

// Config parameterizes an execution.
type Config struct {
	// Seed drives all randomness.
	Seed uint64

	// TagBits is b, the advertisement tag length in bits (0..64).
	TagBits int

	// MaxRounds aborts the run if no stop condition fires earlier.
	// Zero means the default of 10 million.
	MaxRounds int

	// Activations[u] is the first round node u participates (1-based).
	// nil means every node activates in round 1.
	Activations []int

	// Workers sets the parallelism of the engine's bulk-synchronous steps.
	// Zero means GOMAXPROCS; 1 forces sequential execution. Results are
	// identical for any worker count. Phases run on a persistent worker
	// pool only when Workers > 1, n is at least poolDispatchFloor and
	// GOMAXPROCS > 1; otherwise every phase runs inline (see DESIGN §14 for
	// the measured crossover).
	Workers int

	// Accept selects how a receiver picks among incoming proposals.
	// The model (and every analysis in the paper) uses AcceptUniform;
	// the alternatives exist for the A3 ablation experiment.
	Accept AcceptPolicy

	// Classical switches the engine to the *classical* telephone model
	// baseline: every proposal is answered, so a node can serve an
	// unbounded number of incoming connections per round (and a sender can
	// also be called). This deliberately violates the mobile telephone
	// model's defining restriction — the paper's related-work section
	// contrasts the two models, and experiment E12 reproduces that gap.
	Classical bool

	// Observer, when non-nil, receives per-round statistics.
	Observer func(RoundStats)

	// Faults, when non-nil, injects the compiled fault plan into the
	// execution: crash/recover churn (a down node is treated exactly like a
	// node outside its activation window), advertisement tag flips, proposal
	// and connection loss, partitions, and adversarial state resets of
	// Corruptible protocols (see internal/fault). Per-node fault draws are
	// node-addressed — each comes from its own (plan seed, kind, node,
	// round) stream, exactly like the engine's node RNG streams — so they
	// are order-independent and run inside the parallel phase bodies; only
	// the churn state machine and state resets run in the sequential
	// prologue, before the round's first sweep. Faulted executions are therefore bit-identical at any
	// worker count, and the node RNG streams are exactly those of the
	// fault-free run. The injector is single-run state: build a fresh one
	// per engine. With Faults nil every hook reduces to one predictable
	// branch and the steady state stays at exactly 0 allocs/round.
	Faults *fault.Injector

	// Check, when true, verifies the engine's per-round invariants at the
	// end of every round (conservation of proposals across accepts,
	// contention rejects, busy losses, and fault losses; matching symmetry
	// and one-sided-partner sanity; down-node silence; tag-domain bounds —
	// see internal/invariant) and panics on the first violation. It is a
	// debugging and soak-testing aid: O(n + connections) extra work per
	// round, outside the zero-allocation contract. Classical-mode rounds
	// are not checked (the classical baseline has no accept step or
	// partner matching).
	Check bool

	// Sink, when non-nil, receives the run's structured event trace:
	// round boundaries, proposals sent/accepted/rejected, connections,
	// message deliveries, fault events, and protocol state transitions
	// (see internal/obs for the event schema). Tracing does not force the
	// engine sequential: phase bodies emit into private per-worker buffers
	// (obs.WorkerBuf) that the engine drains into the sink in ascending
	// worker order at each sequential barrier. Worker chunks ascend in node
	// id and each worker iterates its chunk ascending, so the chunk-order
	// concatenation reproduces exactly the sequential ascending-node event
	// order — the trace stays
	// a deterministic function of (seed, schedule, protocol, config) at
	// any worker count, the property mtmtrace diff relies on. Fault events
	// ride the same buffers: node-addressed draws fire at fixed per-node
	// points of the phase bodies, so faulted traces are byte-identical
	// across worker counts too. With Sink nil every emission site reduces
	// to one predictable branch and the engine's steady state stays at
	// exactly 0 allocs/round.
	Sink obs.Sink

	// Profiler, when non-nil, accumulates per-phase wall time and
	// per-worker busy time for every round into an mtmprof/v1 report (see
	// obs.NewProfiler — the monotonic clock is injected there; the engine
	// never reads wall time itself, preserving the norand contract).
	// Profiled runs add two clock reads per phase and trade the pinned
	// zero-allocation steady state for timing; with Profiler nil the round
	// loop is unchanged.
	Profiler *obs.Profiler

	// forcePool puts every Workers > 1 engine on the worker pool, ignoring
	// the node-count gate and the single-P check, so tests can run the
	// parallel round core at small n on any host. Set only by tests.
	forcePool bool
}

// AcceptPolicy selects how a receiver chooses among incoming proposals.
type AcceptPolicy int

const (
	// AcceptUniform picks uniformly at random — the model's semantics
	// (Section III), equivalent to the paper's selection permutation.
	AcceptUniform AcceptPolicy = iota
	// AcceptLowestID always picks the proposer with the smallest id
	// (a deterministic, biased policy; ablation only).
	AcceptLowestID
	// AcceptHighestID always picks the proposer with the largest id
	// (ablation only).
	AcceptHighestID
)

// RoundStats summarizes one executed round.
type RoundStats struct {
	Round       int
	Proposals   int
	Connections int
	ActiveNodes int

	// Accepts counts proposals a receiver accepted (in the mobile telephone
	// model this equals Connections; in classical mode every proposal is
	// accepted). Rejects counts proposals that reached a receiver but were
	// not the one chosen. BusyLost counts proposals lost because their
	// target was itself sending; FaultLost counts proposals removed by
	// fault injection (dropped in transit, or accepted over a connection
	// that then failed). Every proposal lands in exactly one bucket:
	// Accepts + Rejects + BusyLost + FaultLost == Proposals, the
	// conservation identity internal/invariant checks.
	Accepts   int
	Rejects   int
	BusyLost  int
	FaultLost int
}

// Result summarizes an execution.
type Result struct {
	// StabilizedRound is the first round at whose end the stop condition
	// held, or 0 if it never fired within MaxRounds.
	StabilizedRound int
	// RoundsExecuted is the total number of rounds run.
	RoundsExecuted int
	// Connections and Proposals are totals across all rounds.
	Connections int64
	Proposals   int64
}

// StopCondition is evaluated at the end of every round; returning true ends
// the run. For the leader-election protocols in this repository, "all leader
// variables equal" is a correct stabilization detector: each node's
// candidate only ever improves toward the unique global minimum, and the
// minimum's owner never changes, so all-equal implies equal-to-minimum,
// which is permanent.
type StopCondition func(round int, protocols []Protocol) bool

// AllLeadersEqual is the standard stop condition for leader election.
func AllLeadersEqual(round int, protocols []Protocol) bool {
	first := protocols[0].Leader()
	for _, p := range protocols[1:] {
		if p.Leader() != first {
			return false
		}
	}
	return true
}

// UpOnly evaluates stop over the up devices only, for runs whose fault plan
// may crash devices: a crashed device keeps whatever state it last held, so
// a condition over every device could wait on it forever. The condition
// never holds while every device is down. With faults nil it returns stop
// unchanged. The returned condition reuses one buffer across rounds, so it
// serves one engine.
func UpOnly(faults *fault.Injector, stop StopCondition) StopCondition {
	if faults == nil {
		return stop
	}
	var up []Protocol
	return func(round int, protocols []Protocol) bool {
		if faults.DownCount() == 0 {
			return stop(round, protocols)
		}
		up = up[:0]
		for u, p := range protocols {
			if !faults.Down(u) {
				up = append(up, p)
			}
		}
		return len(up) > 0 && stop(round, up)
	}
}

// ErrNotStabilized is wrapped by Run when MaxRounds elapses without the stop
// condition firing.
var ErrNotStabilized = errors.New("sim: run did not stabilize within MaxRounds")

// MaxUIDs bounds the number of UIDs per message: the paper's O(1).
const MaxUIDs = 2

const defaultMaxRounds = 10_000_000

// Engine executes protocols over a schedule. Create with New, run with Run.
type Engine struct {
	sched dyngraph.Schedule
	cfg   Config
	n     int

	protocols []Protocol

	// Per-round working state, reused across rounds. rngs[u] holds node
	// u's stream for the current round only while rngLive[u] is set:
	// nodeRNG derives the stream on the node's first draw of the round, and
	// phaseActiveScan clears every flag at the start of each round.
	rngs    []xrand.RNG
	rngLive []bool
	tags    []uint64
	actions []int32 // >=0: proposal target; -1: receive; -2: inactive
	active  []bool
	inboxTo []int32 // flattened proposals grouped per receiver
	inboxAt []int32 // offsets per receiver (n+1)
	partner []int32 // accepted connection partner or -1
	workers int

	// parExec, resolved once in New (see DESIGN §14), says whether this
	// engine dispatches phases on the persistent worker pool or runs each
	// phase inline as a single chunk. Either way step 4 is one two-pass
	// counting sort (a histogram row per dispatched worker in hist, a
	// sequential prefix merge, a scatter) followed by an accept sweep into
	// chosen, so results never depend on the dispatch: fault draws are
	// node-addressed (see internal/fault), inboxes stay sender-ordered
	// (worker chunks ascend in sender id), each receiver's accept choice
	// draws only from its own rngs[v] stream, and trace emission goes
	// through per-worker buffers drained in chunk order.
	parExec bool
	pool    *workerPool // nil unless parExec
	hist    []int32     // proposal histograms/scatter cursors, one row of n per dispatched worker
	chosen  []int32     // per-receiver accepted sender (or noPartner)

	// propLost[u] records whether a fault dropped sender u's proposal in
	// transit this round: written at u by the counting pass, read at u by
	// the scatter pass (chunk-local in both), replacing the historical
	// in-place actions[u] rewrite that the parallel core could not perform
	// race-free. Allocated only when Faults is non-nil.
	propLost []bool

	// curDown is this round's fault down-mask (nil when nobody is down),
	// published before the active scan so the parallel scan can read it.
	curDown []bool

	// chunks holds degree-weighted parallelFor boundaries for the current
	// round graph (weight deg(u)+1), recomputed only when the schedule hands
	// out a new graph; chunkG remembers which graph they describe.
	chunks []int
	chunkG *graph.Graph

	// counters is per-worker round accounting, one cache line per worker so
	// parallel increments do not false-share.
	counters []workerCounters

	// tagLimit is 1<<TagBits (0 when TagBits == 64), precomputed once.
	tagLimit uint64

	// Phase bodies and per-worker Context scratch, bound once in New so the
	// steady-state round loop allocates nothing: a fresh closure or a
	// stack Context whose address reaches an interface method would escape
	// to the heap on every round. TestSteadyStateZeroAllocs pins this.
	phDecide    func(w, lo, hi int)
	phEndRound  func(w, lo, hi int)
	phTagFlip   func(w, lo, hi int)
	phCount     func(w, lo, hi int)
	phScatter   func(w, lo, hi int)
	phAccept    func(w, lo, hi int)
	phScanAdv   func(w, lo, hi int)
	phPartnerEx func(w, lo, hi int)
	ctxA        []Context // one per worker
	ctxB        []Context // second context for the pairwise exchange phase

	// Current-round state shared by the phase methods (set by step).
	curRound int
	curG     *graph.Graph
	curAct   []bool

	// stopGate is the first round at which the stop condition may fire: the
	// last activation round, so partial networks cannot "stabilize" early.
	stopGate int

	connCount []int64 // lifetime connections per node (battery accounting)

	// sinkBegan/sinkEnded track the Begin/End lifecycle of Config.Sink so
	// the header is written exactly once even across RunRounds calls.
	sinkBegan bool
	sinkEnded bool

	// wbufs, in traced runs, holds one private event buffer per dispatched
	// worker (cache-line padded, like counters): phase bodies running as
	// worker w emit into wbufs[w], and flushWorkerBufs drains the buffers
	// into cfg.Sink in ascending worker order at each sequential barrier.
	// Buffering at every worker count lets a phase emit before the round's
	// round_start event is written (round-start faults, the fused
	// scan/advertise sweep) without changing the flushed order. Nil when
	// Sink is nil.
	wbufs []obs.WorkerBuf

	// prof is Config.Profiler (nil = unprofiled round loop).
	prof *obs.Profiler
}

const (
	actionReceive  = invariant.ActionReceive
	actionInactive = invariant.ActionInactive
	noPartner      = invariant.NoPartner
)

// workerCounters is one worker's round accounting, padded to a full cache
// line (64 bytes) so adjacent workers' increments never share a line.
type workerCounters struct {
	proposals   int64
	connections int64
	rejects     int64
	busyLost    int64
	faultLost   int64
	active      int64
	_           [2]int64
}

// Corruptible is implemented by protocols that support fault-injected state
// resets — the internal/fault corruption adversary and crash-with-amnesia
// recovery. CorruptState must return the node to a legal initial state (the
// Section VIII self-stabilization experiments measure how the protocol
// recovers from exactly this), drawing any randomness it needs from rng,
// the injector's deterministic fault stream.
type Corruptible interface {
	CorruptState(rng *xrand.RNG)
}

// New validates the configuration and builds an engine. protocols must have
// one entry per node of the schedule.
func New(sched dyngraph.Schedule, protocols []Protocol, cfg Config) (*Engine, error) {
	n := sched.N()
	if len(protocols) != n {
		return nil, fmt.Errorf("sim: %d protocols for %d nodes", len(protocols), n)
	}
	if n == 0 {
		return nil, errors.New("sim: empty network")
	}
	if cfg.TagBits < 0 || cfg.TagBits > 64 {
		return nil, fmt.Errorf("sim: TagBits %d outside [0, 64]", cfg.TagBits)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = defaultMaxRounds
	}
	if cfg.Activations != nil {
		if len(cfg.Activations) != n {
			return nil, fmt.Errorf("sim: %d activations for %d nodes", len(cfg.Activations), n)
		}
		for u, a := range cfg.Activations {
			if a < 1 {
				return nil, fmt.Errorf("sim: node %d activation round %d < 1", u, a)
			}
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Faults != nil && cfg.Faults.N() != n {
		return nil, fmt.Errorf("sim: fault injector compiled for %d nodes, network has %d", cfg.Faults.N(), n)
	}
	stopGate := 1
	for _, a := range cfg.Activations {
		if a > stopGate {
			stopGate = a
		}
	}
	// Resolve the dispatch core once (see DESIGN §14). With GOMAXPROCS=1 no
	// second worker can ever run concurrently, and below poolDispatchFloor
	// nodes the per-phase wake/join costs more than the chunked sweep saves,
	// so both run every phase inline.
	parExec := workers > 1 && (cfg.forcePool || n >= poolDispatchFloor && runtime.GOMAXPROCS(0) > 1)
	span := 1
	if parExec {
		span = workers
	}
	e := &Engine{
		sched:     sched,
		cfg:       cfg,
		n:         n,
		protocols: protocols,
		rngs:      make([]xrand.RNG, n),
		rngLive:   make([]bool, n),
		tags:      make([]uint64, n),
		actions:   make([]int32, n),
		active:    make([]bool, n),
		inboxTo:   make([]int32, 0, n),
		inboxAt:   make([]int32, n+1),
		partner:   make([]int32, n),
		workers:   workers,
		parExec:   parExec,
		stopGate:  stopGate,
		connCount: make([]int64, n),
		chunks:    make([]int, workers+1),
		counters:  make([]workerCounters, span),
		hist:      make([]int32, span*n),
		chosen:    make([]int32, n),
		ctxA:      make([]Context, span),
		ctxB:      make([]Context, span),
	}
	if cfg.TagBits < 64 {
		e.tagLimit = uint64(1) << uint(cfg.TagBits)
	}
	if cfg.Faults != nil {
		e.propLost = make([]bool, n)
	}
	if cfg.Sink != nil {
		e.wbufs = make([]obs.WorkerBuf, span)
	}
	if parExec {
		// A parked pool holds no engine reference, so the finalizer fires
		// once the engine is garbage and stops the workers; Close does the
		// same deterministically.
		e.pool = newWorkerPool(workers)
		runtime.SetFinalizer(e, func(en *Engine) { en.pool.close() })
	}
	if cfg.Profiler != nil {
		cfg.Profiler.Attach(workers)
		mode, gate := "inline", poolDispatchFloor
		if parExec {
			mode = "pool"
		}
		if cfg.forcePool {
			gate = 0
		}
		cfg.Profiler.SetDispatch(mode, gate)
		e.prof = cfg.Profiler
	}
	// Method values allocate their receiver binding; do it once here, not
	// once per parallelFor call.
	e.phDecide = e.phaseDecide
	e.phEndRound = e.phaseEndRound
	e.phTagFlip = e.phaseTagFlip
	e.phCount = e.phaseCount
	e.phScatter = e.phaseScatter
	e.phAccept = e.phaseAccept
	e.phScanAdv = e.phaseScanAdvertise
	e.phPartnerEx = e.phasePartnerExchange
	return e, nil
}

// Close stops the engine's worker pool, if any. It is idempotent, safe on
// engines that never had a pool, and terminal: running more rounds after
// Close panics. Transient engines (the facade's per-call engines, benchmark
// sweeps) should Close when done; engines that simply go out of scope are
// cleaned up by the finalizer instead, just less promptly.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.close()
		runtime.SetFinalizer(e, nil)
	}
}

// Run executes rounds until the stop condition fires or MaxRounds elapses.
// On timeout it returns the partial result and an error wrapping
// ErrNotStabilized.
func (e *Engine) Run(stop StopCondition) (Result, error) {
	defer e.endSink()
	var res Result
	for r := 1; r <= e.cfg.MaxRounds; r++ {
		stats := e.step(r)
		res.RoundsExecuted = r
		res.Proposals += int64(stats.Proposals)
		res.Connections += int64(stats.Connections)
		if e.cfg.Observer != nil {
			e.cfg.Observer(stats)
		}
		if stop != nil && r >= e.stopGate && stop(r, e.protocols) {
			res.StabilizedRound = r
			return res, nil
		}
	}
	return res, fmt.Errorf("%w (MaxRounds=%d, schedule=%s)", ErrNotStabilized, e.cfg.MaxRounds, e.sched.Name())
}

// beginSink writes the trace header on the first emitted event.
func (e *Engine) beginSink() {
	if e.cfg.Sink == nil || e.sinkBegan {
		return
	}
	e.sinkBegan = true
	e.cfg.Sink.Begin(obs.Header{
		Seed:      e.cfg.Seed,
		Schedule:  e.sched.Name(),
		N:         e.n,
		TagBits:   e.cfg.TagBits,
		Classical: e.cfg.Classical,
	})
}

// endSink finalizes the trace stream exactly once (also on timeout).
func (e *Engine) endSink() {
	if e.cfg.Sink == nil || !e.sinkBegan || e.sinkEnded {
		return
	}
	e.sinkEnded = true
	e.cfg.Sink.End()
}

// RunRounds executes exactly k more rounds regardless of any condition,
// continuing the round counter from previous calls to Run/RunRounds.
// It is used by stability-validation tests.
func (e *Engine) RunRounds(startRound, k int) {
	e.beginSink()
	for r := startRound; r < startRound+k; r++ {
		e.step(r)
	}
}

// Protocols exposes the engine's protocol instances (for inspection).
func (e *Engine) Protocols() []Protocol { return e.protocols }

// step runs one full round and returns its statistics. It is the root of
// the steady-state zero-allocation contract that TestSteadyStateZeroAllocs
// pins at runtime and the hotalloc analyzer certifies statically; profiled
// runs take the timed branch and additionally record the round's wall time.
//
//mtmlint:hotpath
func (e *Engine) step(r int) RoundStats {
	if e.prof == nil {
		return e.stepCore(r)
	}
	t0 := e.prof.Clock()
	stats := e.stepCore(r)
	e.prof.RoundDone(e.prof.Clock() - t0)
	return stats
}

// refreshChunks recomputes the degree-weighted chunk boundaries for a new
// round graph: hub-skewed topologies (one node of degree n-1) would
// otherwise put an entire round's scan work into one worker's equal-index
// chunk. Boundaries depend only on (graph, workers), never on round state,
// and results are worker-count-independent, so this cannot perturb
// determinism. The scratch is O(1) per engine — one workers+1 slice reused
// for every graph a schedule ever produces (churn included), which
// TestChunkScratchBoundedAcrossTrials pins at zero allocations.
func (e *Engine) refreshChunks(g *graph.Graph) {
	g.BalancedChunks(e.workers, e.chunks)
	e.chunkG = g
}

// stepCore is the round body shared by profiled and unprofiled runs.
//
//mtmlint:hotpath
func (e *Engine) stepCore(r int) RoundStats {
	g := e.sched.GraphAt(r)
	if e.parExec && g != e.chunkG {
		e.refreshChunks(g)
	}
	e.curRound, e.curG = r, g
	e.curDown = nil
	if e.cfg.Faults != nil {
		// Advance the churn state machine and apply the round's state resets
		// before the sweep below: a crashed node is exactly a node outside
		// its activation window, and advertise must see the reset state.
		e.cfg.Faults.BeginRound(r)
		e.curDown = e.cfg.Faults.DownMask()
		e.applyRoundStartFaults(r)
	}
	// Steps 1 + 2 in one sweep: compute the active set and advertise. The
	// advertise sweep may not inspect neighbors (the Protocol contract), so
	// binding its contexts to the still-forming activity array is
	// unobservable; curAct resolves to its usual value right below, before
	// anything that may look at neighbors runs.
	e.curAct = e.active
	e.parallelForFused(obs.PhaseScanAdvertise, e.phScanAdv)
	activeCount := 0
	for w := range e.counters {
		activeCount += int(e.counters[w].active)
	}
	var act []bool
	if activeCount != e.n {
		act = e.active
	}
	e.curAct = act

	// The round-start faults and the sweep emitted into the worker buffers;
	// flushing them after round_start puts their events behind it.
	sink := e.cfg.Sink
	if sink != nil {
		e.beginSink()
		sink.Event(obs.Event{Type: obs.TypeRoundStart, Round: r,
			Node: obs.NoNode, Peer: obs.NoNode, A: uint64(activeCount)})
	}
	e.flushWorkerBufs()
	if e.cfg.Faults != nil && e.cfg.TagBits > 0 && e.cfg.Faults.TagFlipEnabled() {
		// Corrupt advertisements between advertise and decide, so deciders
		// (and the propose events below) see the flipped tags. Flip draws
		// are node-addressed, so the pass runs chunked like any other phase.
		e.parallelFor(obs.PhaseTagFlip, e.phTagFlip)
		e.flushWorkerBufs()
	}
	// Step 3. Each node's RNG is derived from (seed, node, round), so the
	// order nodes run in is irrelevant.
	e.parallelFor(obs.PhaseDecide, e.phDecide)
	e.flushWorkerBufs()

	if e.cfg.Classical {
		return e.classicalFinish(r, activeCount)
	}

	// Step 4: group proposals by receiver (the counting sort keeps each
	// inbox ordered by sender id), then accept. Step 5, the exchange, runs
	// in the sweep that derives partners from the accept results.
	proposals, connections, rejects, busyLost, faultLost := e.bucketAccept()
	e.parallelForFused(obs.PhasePartnerExchange, e.phPartnerEx)
	e.flushWorkerBufs()

	// End of round.
	e.parallelFor(obs.PhaseEndRound, e.phEndRound)
	e.flushWorkerBufs()

	if sink != nil {
		sink.Event(obs.Event{Type: obs.TypeRoundEnd, Round: r,
			Node: int32(connections), Peer: int32(rejects),
			A: uint64(proposals), B: uint64(connections)})
	}

	stats := RoundStats{Round: r, Proposals: proposals, Connections: connections,
		ActiveNodes: activeCount, Accepts: connections, Rejects: rejects,
		BusyLost: busyLost, FaultLost: faultLost}
	if e.cfg.Check {
		//mtmlint:hotpath-end invariant checking is opt-in (Config.Check) and outside the zero-alloc contract; the pinned configuration never takes this branch
		e.verifyRound(r, stats)
	}
	return stats
}

// verifyRound feeds the round's end state to the internal/invariant checker
// and panics on the first violation — Config.Check only.
func (e *Engine) verifyRound(r int, s RoundStats) {
	v := invariant.View{
		Round:   r,
		G:       e.curG,
		Active:  e.curAct,
		Down:    e.curDown,
		Actions: e.actions,
		Partner: e.partner,
		Tags:    e.tags,
		TagBits: e.cfg.TagBits,
		Stats: invariant.Stats{
			Proposals: s.Proposals,
			Accepts:   s.Accepts,
			Rejects:   s.Rejects,
			BusyLost:  s.BusyLost,
			FaultLost: s.FaultLost,
		},
	}
	if err := invariant.Check(v); err != nil {
		panic(fmt.Sprintf("sim: round %d: %v", r, err))
	}
}

// bucketAccept is step 4: a two-pass counting sort buckets proposals (a
// histogram row per dispatched worker, one sequential prefix merge that
// turns histogram cells into scatter cursor bases, then a scatter),
// followed by the accept sweep, which may run in parallel because each
// receiver's choice draws only from its own rngs[v] stream. Worker chunks
// ascend in sender id, so every inbox comes out in ascending sender order
// at any worker count; an inline engine runs each sweep as one chunk over
// one row.
//
//mtmlint:hotpath
func (e *Engine) bucketAccept() (proposals, connections, rejects, busyLost, faultLost int) {
	e.parallelFor(obs.PhaseCount, e.phCount)
	e.flushWorkerBufs()
	t0 := e.profStart()
	n, hist, inboxAt := e.n, e.hist, e.inboxAt
	total := int32(0)
	for t := 0; t < n; t++ {
		inboxAt[t] = total
		for i := t; i < len(hist); i += n { // row w's cell for receiver t
			c := hist[i]
			hist[i] = total
			total += c
		}
	}
	inboxAt[n] = total
	if cap(e.inboxTo) < int(total) {
		// Amortized doubling: rounding the new capacity up keeps regrowth
		// O(log n) over an execution instead of once per high-water mark.
		e.inboxTo = make([]int32, total, max(2*cap(e.inboxTo), int(total)))
	} else {
		e.inboxTo = e.inboxTo[:total]
	}
	e.profEnd(obs.PhaseMerge, t0)
	e.parallelFor(obs.PhaseScatter, e.phScatter)
	e.parallelFor(obs.PhaseAccept, e.phAccept)
	e.flushWorkerBufs()
	// The round's accounting is complete after count + accept: the sweep
	// that derives partners and exchanges touches no counters.
	for w := range e.counters {
		c := &e.counters[w]
		proposals += int(c.proposals)
		connections += int(c.connections)
		rejects += int(c.rejects)
		busyLost += int(c.busyLost)
		faultLost += int(c.faultLost)
	}
	return proposals, connections, rejects, busyLost, faultLost
}

// applyRoundStartFaults publishes this round's churn and applies state
// resets: crash-with-amnesia recoveries (Plan.ResetOnRecover) and scripted
// corruption bursts of nodes active this round. Runs sequentially before
// the scan/advertise sweep; each reset draws from the injector's
// per-(node, round) state stream. Its events go to worker 0's buffer, which
// the engine flushes right after round_start.
func (e *Engine) applyRoundStartFaults(r int) {
	in := e.cfg.Faults
	sink := e.workerSink(0)
	if sink != nil {
		for _, u := range in.NewlyDown() {
			sink.Event(obs.Event{Type: obs.TypeFault, Kind: obs.KindCrash,
				Round: r, Node: u, Peer: obs.NoNode})
		}
	}
	for _, u := range in.NewlyRecovered() {
		old := e.protocols[u].Leader()
		if in.ResetOnRecover() {
			if c, ok := e.protocols[u].(Corruptible); ok {
				c.CorruptState(in.StateRNG(u, r))
			}
		}
		if sink != nil {
			sink.Event(obs.Event{Type: obs.TypeFault, Kind: obs.KindRecover,
				Round: r, Node: u, Peer: obs.NoNode, A: old, B: e.protocols[u].Leader()})
		}
	}
	for _, u := range in.CorruptTargets(r) {
		if !e.activeAt(int(u), r) {
			continue // corruption targets participating nodes only
		}
		c, ok := e.protocols[u].(Corruptible)
		if !ok {
			continue
		}
		old := e.protocols[u].Leader()
		c.CorruptState(in.StateRNG(u, r))
		if sink != nil {
			sink.Event(obs.Event{Type: obs.TypeFault, Kind: obs.KindCorrupt,
				Round: r, Node: u, Peer: obs.NoNode, A: old, B: e.protocols[u].Leader()})
		}
	}
}

// phaseTagFlip corrupts advertisements on the air for nodes [lo, hi): one
// node-addressed fault draw per active node, between the advertise and
// decide phases. Flip events ride the per-worker buffers like any phase
// emission, so the flushed stream keeps the sequential ascending-node order.
//
//mtmlint:hotpath
func (e *Engine) phaseTagFlip(w, lo, hi int) {
	sink := e.workerSink(w)
	r := e.curRound
	for u := lo; u < hi; u++ {
		if !e.active[u] {
			continue
		}
		tag, flipped := e.cfg.Faults.FlipTag(int32(u), r, e.cfg.TagBits, e.tags[u])
		if !flipped {
			continue
		}
		if sink != nil {
			sink.Event(obs.Event{Type: obs.TypeFault, Kind: obs.KindTagFlip,
				Round: r, Node: int32(u), Peer: obs.NoNode, A: e.tags[u], B: tag})
		}
		e.tags[u] = tag
	}
}

// bindCtx points the scratch Context at the current round's state, routing
// event emission to worker w's private buffer.
func (e *Engine) bindCtx(c *Context, w int) {
	c.Round = e.curRound
	c.e = e
	c.g = e.curG
	c.tags = e.tags
	c.act = e.curAct
	c.sink = e.workerSink(w)
}

// workerSink returns worker w's event buffer, or nil in untraced runs.
//
//mtmlint:hotpath
func (e *Engine) workerSink(w int) obs.Sink {
	if e.wbufs == nil {
		return nil
	}
	return &e.wbufs[w]
}

// flushWorkerBufs drains the per-worker event buffers into the configured
// sink in ascending worker order; the engine calls it at every sequential
// barrier that follows an emitting phase. Worker chunks ascend in node id
// and each worker iterates its chunk ascending, so this concatenation
// reproduces exactly the sequential ascending-node emission order. No-op
// (one branch) for untraced runs.
//
//mtmlint:hotpath
func (e *Engine) flushWorkerBufs() {
	if e.wbufs == nil {
		return
	}
	t0 := e.profStart()
	sink := e.cfg.Sink
	for w := range e.wbufs {
		e.wbufs[w].FlushTo(sink)
	}
	e.profEnd(obs.PhaseFlush, t0)
}

// profStart reads the profiler clock at the start of a sequential section,
// or 0 when unprofiled.
//
//mtmlint:hotpath
func (e *Engine) profStart() int64 {
	if e.prof == nil {
		return 0
	}
	return e.prof.Clock()
}

// profEnd charges a sequential section started at profStart to phase ph.
//
//mtmlint:hotpath
func (e *Engine) profEnd(ph obs.Phase, t0 int64) {
	if e.prof == nil {
		return
	}
	e.prof.AddSeq(ph, e.prof.Clock()-t0)
}

// profBusy charges worker w's time since t0 to phase ph as busy time only
// (the fused bodies' constituent sweeps) and returns the current clock
// reading, or 0 when unprofiled.
//
//mtmlint:hotpath
func (e *Engine) profBusy(ph obs.Phase, w int, t0 int64) int64 {
	if e.prof == nil {
		return 0
	}
	t1 := e.prof.Clock()
	e.prof.AddBusy(ph, w, t1-t0)
	return t1
}

// phaseAdvertise runs step 2 for nodes [lo, hi) using worker w's scratch.
//
//mtmlint:hotpath
func (e *Engine) phaseAdvertise(w, lo, hi int) {
	ctx := &e.ctxA[w]
	e.bindCtx(ctx, w)
	for u := lo; u < hi; u++ {
		if !e.active[u] {
			e.actions[u] = actionInactive
			e.tags[u] = 0
			continue
		}
		ctx.Node = int32(u)
		tag := e.protocols[u].Advertise(ctx)
		if e.tagLimit != 0 && tag >= e.tagLimit {
			panic(fmt.Sprintf("sim: node %d advertised tag %d exceeding b=%d bits", u, tag, e.cfg.TagBits))
		}
		e.tags[u] = tag
	}
}

// phaseDecide runs step 3 for nodes [lo, hi) using worker w's scratch.
//
//mtmlint:hotpath
func (e *Engine) phaseDecide(w, lo, hi int) {
	ctx := &e.ctxA[w]
	e.bindCtx(ctx, w)
	for u := lo; u < hi; u++ {
		if !e.active[u] {
			continue
		}
		ctx.Node = int32(u)
		target, propose := e.protocols[u].Decide(ctx)
		if !propose {
			e.actions[u] = actionReceive
			continue
		}
		if target < 0 || int(target) >= e.n || !e.curG.HasEdge(u, int(target)) {
			panic(fmt.Sprintf("sim: node %d proposed to non-neighbor %d in round %d", u, target, e.curRound))
		}
		if !e.active[target] {
			panic(fmt.Sprintf("sim: node %d proposed to inactive node %d in round %d", u, target, e.curRound))
		}
		e.actions[u] = target
	}
}

// emitDeliver publishes one message delivery (recipient <- sender) to the
// given sink (the worker's buffer in traced parallel runs); the event
// precedes the Deliver callback so any transition the message causes
// appears after its delivery in the trace.
//
//mtmlint:hotpath
func (e *Engine) emitDeliver(sink obs.Sink, to, from int32, m Message) {
	if sink == nil {
		return
	}
	var uid uint64
	if len(m.UIDs) > 0 {
		uid = m.UIDs[0]
	}
	sink.Event(obs.Event{Type: obs.TypeDeliver, Round: e.curRound,
		Node: to, Peer: from, A: uid, B: m.Aux})
}

// phaseEndRound runs the end-of-round callback for nodes [lo, hi).
//
//mtmlint:hotpath
func (e *Engine) phaseEndRound(w, lo, hi int) {
	ctx := &e.ctxA[w]
	e.bindCtx(ctx, w)
	for u := lo; u < hi; u++ {
		if !e.active[u] {
			continue
		}
		ctx.Node = int32(u)
		e.protocols[u].EndRound(ctx)
	}
}

// phaseActiveScan computes the activity bits for nodes [lo, hi), counts
// them into worker w's counter row, and marks every node's stream as not
// yet derived for the round.
//
//mtmlint:hotpath
func (e *Engine) phaseActiveScan(w, lo, hi int) {
	r := e.curRound
	ctr := &e.counters[w]
	ctr.active = 0
	for u := lo; u < hi; u++ {
		e.rngLive[u] = false
		a := e.activeAt(u, r)
		e.active[u] = a
		if a {
			ctr.active++
		}
	}
}

// activeAt reports whether node u participates in round r: it has
// activated and is not down. The fault down-mask (e.curDown) is published
// sequentially before any dispatch and frozen for the round, so any worker
// may read it at any index.
//
//mtmlint:hotpath
func (e *Engine) activeAt(u, r int) bool {
	if e.cfg.Activations != nil && e.cfg.Activations[u] > r {
		return false
	}
	return e.curDown == nil || !e.curDown[u]
}

// nodeRNG returns node u's random stream for the current round, deriving
// it from (seed, u, round) on the node's first draw of the round. Both
// Context.RNG() and the accept step draw through it. Only code running for u
// calls it — u's own chunk, or, in the exchange, the worker of u's pair —
// so the derivation never races.
//
//mtmlint:hotpath
func (e *Engine) nodeRNG(u int32) *xrand.RNG {
	r := &e.rngs[u]
	if !e.rngLive[u] {
		r.Reseed(e.cfg.Seed, uint64(u), uint64(e.curRound))
		e.rngLive[u] = true
	}
	return r
}

// phaseCount is counting-sort pass one: worker w histograms the proposals of
// senders [lo, hi) into its private row of e.hist and tallies every
// proposal (delivered, busy-lost or fault-lost) into its counters. Traced
// runs also emit the propose, proposal-loss and busy-reject events here,
// into the worker's private buffer, in ascending sender order.
//
//mtmlint:hotpath
func (e *Engine) phaseCount(w, lo, hi int) {
	n := e.n
	row := e.hist[w*n : (w+1)*n]
	clear(row)
	actions, tags, lost, faults := e.actions, e.tags, e.propLost, e.cfg.Faults
	var buf *obs.WorkerBuf // nil in untraced runs
	if e.wbufs != nil {
		buf = &e.wbufs[w]
	}
	r := e.curRound
	var proposals, busyLost, faultLost int64
	for u := lo; u < hi; u++ {
		t := actions[u]
		if t < 0 {
			continue
		}
		if buf != nil {
			buf.Event(obs.Event{Type: obs.TypePropose, Round: r,
				Node: int32(u), Peer: t, A: tags[u], B: tags[t]})
		}
		proposals++
		// One node-addressed fault draw per proposal: a dropped proposal
		// never reaches its target (but the node still transmitted, so
		// proposals aimed at it stay busy-lost). The verdict lands in the
		// chunk-local propLost[u] cell for the scatter pass.
		if faults != nil {
			if faults.DropProposal(int32(u), r) {
				lost[u] = true
				faultLost++
				if buf != nil {
					buf.Event(obs.Event{Type: obs.TypeFault, Kind: obs.KindPropLoss,
						Round: r, Node: t, Peer: int32(u)})
				}
				continue
			}
			lost[u] = false
		}
		// A proposal to a node that itself proposed is lost (the model: a
		// node that sends cannot also receive).
		if actions[t] == actionReceive {
			row[t]++
		} else {
			busyLost++
			if buf != nil {
				buf.Event(obs.Event{Type: obs.TypeReject, Kind: obs.KindBusy,
					Round: r, Node: t, Peer: int32(u)})
			}
		}
	}
	ctr := &e.counters[w]
	ctr.proposals, ctr.busyLost, ctr.faultLost = proposals, busyLost, faultLost
}

// phaseScatter is counting-sort pass two: after the sequential merge rewrote
// worker w's histogram row into scatter cursor bases, each worker writes its
// senders into the shared inboxTo. Distinct (w, t) cursor ranges are
// disjoint by construction of the merge, and chunks ascend in sender id, so
// each receiver's inbox lists its senders in ascending order.
//
//mtmlint:hotpath
func (e *Engine) phaseScatter(w, lo, hi int) {
	n := e.n
	row := e.hist[w*n : (w+1)*n]
	actions, lost := e.actions, e.propLost // lost is nil exactly when Faults is nil
	for u := lo; u < hi; u++ {
		if t := actions[u]; t >= 0 && actions[t] == actionReceive && (lost == nil || !lost[u]) {
			e.inboxTo[row[t]] = int32(u)
			row[t]++
		}
	}
}

// phaseAccept runs step 4's accept decision for receivers [lo, hi): each
// picks one sender of its inbox by the configured policy, drawing only from
// its own rngs[v] stream, and records the winner in e.chosen. Every v in the
// chunk gets a chosen entry (noPartner for non-receivers) so
// phasePartnerExchange can test chosen[t] for any target. Traced runs also
// emit the accept (or connection-loss), contention-reject and connect
// events here, into the worker's private buffer, in ascending receiver
// order.
//
//mtmlint:hotpath
func (e *Engine) phaseAccept(w, lo, hi int) {
	inboxAt, inboxTo, chosen := e.inboxAt, e.inboxTo, e.chosen
	faults, policy := e.cfg.Faults, e.cfg.Accept
	var buf *obs.WorkerBuf // nil in untraced runs
	if e.wbufs != nil {
		buf = &e.wbufs[w]
	}
	r := e.curRound
	var connections, rejects, faultLost int64
	for v := lo; v < hi; v++ {
		chosen[v] = noPartner
		// Only a receiver's inbox can be non-empty: the counting sort
		// delivers no proposal to a sender or an inactive node.
		inbox := inboxTo[inboxAt[v]:inboxAt[v+1]]
		if len(inbox) == 0 {
			continue
		}
		c := inbox[0] // inbox is sorted by sender id
		switch policy {
		case AcceptUniform:
			// A lone proposal is accepted without a draw.
			if len(inbox) > 1 {
				c = inbox[e.nodeRNG(int32(v)).Intn(len(inbox))]
			}
		case AcceptLowestID:
			// inbox[0] already.
		case AcceptHighestID:
			c = inbox[len(inbox)-1]
		default:
			panic(fmt.Sprintf("sim: unknown accept policy %d", policy))
		}
		// One node-addressed fault draw per acceptance, after the accept
		// choice so the node RNG streams match the fault-free run: a dropped
		// connection exchanges nothing (the receiver wastes its round), and
		// the proposals the receiver turned down stay contention rejects.
		dropped := faults != nil && faults.DropConnection(int32(v), c, r)
		if dropped {
			faultLost++
		} else {
			chosen[v] = c
			connections++
		}
		rejects += int64(len(inbox) - 1)
		if buf != nil {
			emitAccept(buf, r, int32(v), c, inbox, dropped)
		}
	}
	ctr := &e.counters[w]
	ctr.connections, ctr.rejects = connections, rejects
	ctr.faultLost += faultLost
}

// emitAccept publishes receiver v's round-r step-4 outcome to a worker
// buffer: the accept of c (or, when a fault dropped the connection, the
// connection-loss event), a contention reject for every other sender in
// the inbox, and the connect event of an established pair.
//
//mtmlint:hotpath
func emitAccept(buf *obs.WorkerBuf, r int, v, c int32, inbox []int32, dropped bool) {
	if dropped {
		buf.Event(obs.Event{Type: obs.TypeFault, Kind: obs.KindConnLoss, Round: r, Node: v, Peer: c})
	} else {
		buf.Event(obs.Event{Type: obs.TypeAccept, Round: r, Node: v, Peer: c})
	}
	for _, s := range inbox {
		if s != c {
			buf.Event(obs.Event{Type: obs.TypeReject, Kind: obs.KindContention, Round: r, Node: v, Peer: s})
		}
	}
	if !dropped {
		buf.Event(obs.Event{Type: obs.TypeConnect, Round: r, Node: min(v, c), Peer: max(v, c)})
	}
}

// phaseScanAdvertise is the fused step-1 + step-2 body: one dispatch scans
// the activity of nodes [lo, hi) into worker w's counter row, then runs the
// advertise sweep over the same, now cache-warm, chunk, saving a barrier
// and a second pass over the chunk every round. Profiled runs self-time the
// sweeps so busy attribution stays on the constituent phases; the dispatch
// charges its wall time to obs.PhaseScanAdvertise.
//
//mtmlint:hotpath
func (e *Engine) phaseScanAdvertise(w, lo, hi int) {
	t0 := e.profStart()
	e.phaseActiveScan(w, lo, hi)
	t0 = e.profBusy(obs.PhaseActiveScan, w, t0)
	e.phaseAdvertise(w, lo, hi)
	e.profBusy(obs.PhaseAdvertise, w, t0)
}

// phasePartnerExchange is the step-5 sweep over nodes [lo, hi): it derives
// each node's partner and lifetime connection count from the accept results
// and exchanges over every pair whose smaller endpoint is the node. A
// receiver pairs with its chosen sender, and a sender pairs with its target
// iff that target chose it, so each node writes only its own partner and
// connCount entries. The exchange reads no partner entry: it runs on the
// pair just derived, and the peer state it touches (protocols, rngs) is
// disjoint from the partner/connCount cells the peer's worker may still be
// writing; chosen and actions were frozen at the accept and decide
// barriers. Pairs are handled in ascending order of their smaller endpoint,
// which is the trace order. The dispatch charges its wall time to
// obs.PhasePartnerExchange and the sweep self-times its busy time under
// obs.PhaseExchange.
//
//mtmlint:hotpath
func (e *Engine) phasePartnerExchange(w, lo, hi int) {
	t0 := e.profStart()
	ctxU, ctxV := &e.ctxA[w], &e.ctxB[w]
	e.bindCtx(ctxU, w)
	e.bindCtx(ctxV, w)
	actions, chosen, partner, connCount := e.actions, e.chosen, e.partner, e.connCount
	protocols := e.protocols
	for u := lo; u < hi; u++ {
		// chosen[x] == u only if u proposed to x, so for a receiver or an
		// inactive node (t < 0) the lookup at index t&^(t>>31) == 0 never
		// matches: the select needs no branch on the node's role, which is
		// a coin flip under blind gossip.
		v, t := chosen[u], actions[u]
		if chosen[t&^(t>>31)] == int32(u) {
			v = t
		}
		partner[u] = v
		if v == noPartner {
			continue
		}
		connCount[u]++
		if int(v) < u {
			continue // each pair handled once, by its smaller endpoint
		}
		ctxU.Node = int32(u)
		ctxV.Node = v
		mu := protocols[u].Outgoing(ctxU, v)
		mv := protocols[v].Outgoing(ctxV, int32(u))
		e.checkMessage(u, mu)
		e.checkMessage(int(v), mv)
		e.emitDeliver(ctxU.sink, int32(u), v, mv)
		protocols[u].Deliver(ctxU, v, mv)
		e.emitDeliver(ctxU.sink, v, int32(u), mu)
		protocols[v].Deliver(ctxV, int32(u), mu)
	}
	e.profBusy(obs.PhaseExchange, w, t0)
}

// classicalFinish completes a round under classical telephone semantics:
// every proposal is answered (receivers serve unboundedly many incoming
// connections, and senders can also be called). Exchanges run sequentially
// in sender order for determinism — a receiver's protocol may be delivered
// to many times per round.
func (e *Engine) classicalFinish(r, activeCount int) RoundStats {
	// The loop runs as worker 0: its own events and its contexts'
	// transitions share worker 0's buffer, so they stay interleaved in
	// program order.
	ctxU, ctxV := &e.ctxA[0], &e.ctxB[0]
	e.bindCtx(ctxU, 0)
	e.bindCtx(ctxV, 0)
	connections, proposals, faultLost := 0, 0, 0
	sink := e.workerSink(0)
	t0 := e.profStart()
	for u := 0; u < e.n; u++ {
		v := e.actions[u]
		if v < 0 {
			continue
		}
		proposals++
		if sink != nil {
			sink.Event(obs.Event{Type: obs.TypePropose, Round: r,
				Node: int32(u), Peer: v, A: e.tags[u], B: e.tags[v]})
		}
		// Classical mode has no accept step, so only proposal loss applies
		// (ConnLoss draws nothing here — classical connects every proposal
		// that arrives).
		if e.cfg.Faults != nil && e.cfg.Faults.DropProposal(int32(u), r) {
			faultLost++
			if sink != nil {
				sink.Event(obs.Event{Type: obs.TypeFault, Kind: obs.KindPropLoss,
					Round: r, Node: v, Peer: int32(u)})
			}
			continue
		}
		connections++
		e.connCount[u]++
		e.connCount[v]++
		if sink != nil {
			sink.Event(obs.Event{Type: obs.TypeAccept, Round: r, Node: v, Peer: int32(u)})
			lo, hi := int32(u), v
			if hi < lo {
				lo, hi = hi, lo
			}
			sink.Event(obs.Event{Type: obs.TypeConnect, Round: r, Node: lo, Peer: hi})
		}
		ctxU.Node = int32(u)
		ctxV.Node = v
		mu := e.protocols[u].Outgoing(ctxU, v)
		mv := e.protocols[v].Outgoing(ctxV, int32(u))
		e.checkMessage(u, mu)
		e.checkMessage(int(v), mv)
		e.emitDeliver(sink, int32(u), v, mv)
		e.protocols[u].Deliver(ctxU, v, mv)
		e.emitDeliver(sink, v, int32(u), mu)
		e.protocols[v].Deliver(ctxV, int32(u), mu)
	}
	e.profEnd(obs.PhaseExchange, t0)

	e.parallelFor(obs.PhaseEndRound, e.phEndRound)
	e.flushWorkerBufs()
	if e.cfg.Sink != nil {
		e.cfg.Sink.Event(obs.Event{Type: obs.TypeRoundEnd, Round: r,
			Node: int32(connections), Peer: 0,
			A: uint64(proposals), B: uint64(connections)})
	}
	return RoundStats{Round: r, Proposals: proposals, Connections: connections,
		ActiveNodes: activeCount, Accepts: connections, FaultLost: faultLost}
}

func (e *Engine) checkMessage(u int, m Message) {
	if len(m.UIDs) > MaxUIDs {
		panic(fmt.Sprintf("sim: node %d sent %d UIDs, budget is %d", u, len(m.UIDs), MaxUIDs))
	}
}

// poolDispatchFloor is the node count below which an engine runs every
// phase inline (see DESIGN §14 for the crossover measurement; the rounds
// benchmark tier re-measures it). A pool dispatch is one atomic publish +
// wake (~1µs end to end at 8 workers), but per-phase chunk work is only
// ~100ns/node — below about a thousand nodes per phase even an ideal
// speedup cannot recover ~7 wake/join barriers per round.
const poolDispatchFloor = 1024

// parallelFor runs fn over [0, n) split at the degree-weighted boundaries in
// e.chunks, passing each chunk its worker index w (for per-worker scratch).
// On the pool, worker 0 runs inline on the caller and every worker index is
// dispatched even when its chunk is empty, so per-worker counter and
// histogram rows are freshly written on every call — one atomic publish
// plus wake, zero allocations. An inline engine runs fn(0, 0, n).
//
// ph names the phase for the profiler: profiled runs record the phase's wall
// time and each worker's busy time (the per-phase imbalance in the
// mtmprof/v1 report); unprofiled runs never read the clock.
//
//mtmlint:hotpath
func (e *Engine) parallelFor(ph obs.Phase, fn func(w, lo, hi int)) {
	e.dispatch(ph, fn, false)
}

// parallelForFused is parallelFor for fused phase bodies, which self-time
// their constituent sweeps (see phaseScanAdvertise/phasePartnerExchange):
// the dispatch records only the composite phase's wall time, so no busy
// nanosecond is counted twice.
//
//mtmlint:hotpath
func (e *Engine) parallelForFused(ph obs.Phase, fn func(w, lo, hi int)) {
	e.dispatch(ph, fn, true)
}

// dispatch is the body of parallelFor and parallelForFused.
//
//mtmlint:hotpath
func (e *Engine) dispatch(ph obs.Phase, fn func(w, lo, hi int), selfTimed bool) {
	if e.prof == nil {
		if e.parExec {
			e.pool.dispatch(ph, fn, e.chunks, nil, false)
		} else {
			fn(0, 0, e.n)
		}
		return
	}
	t0 := e.prof.Clock()
	switch {
	case e.parExec:
		e.pool.dispatch(ph, fn, e.chunks, e.prof, selfTimed)
		e.prof.AddWall(ph, e.prof.Clock()-t0)
	case selfTimed:
		fn(0, 0, e.n)
		e.prof.AddWall(ph, e.prof.Clock()-t0)
	default:
		fn(0, 0, e.n)
		e.prof.AddSeq(ph, e.prof.Clock()-t0)
	}
}

// NodeLoad reports per-node lifetime connection counts — the simulator's
// proxy for radio/battery cost, the practical resource the paper's
// introduction motivates conserving. The returned slice is a copy.
func (e *Engine) NodeLoad() []int64 {
	out := make([]int64, len(e.connCount))
	copy(out, e.connCount)
	return out
}
