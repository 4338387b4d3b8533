// Package dyngraph implements the dynamic network topologies of the mobile
// telephone model (Section III of the paper): a dynamic graph is a sequence
// G_1, G_2, ... of static graphs over a fixed node set, constrained by a
// stability factor τ — at least τ rounds must pass between topology changes.
// τ = 1 allows arbitrary change every round; Static schedules model τ = ∞.
//
// The paper's upper bounds hold for every τ-stable dynamic graph, so any
// schedule here is a valid test harness. The schedules provided stress the
// quantities the proofs range over (cut matchings that change every τ
// rounds) in different ways: epoch-wise regeneration, shape-preserving
// permutation, degree-preserving churn, and random-waypoint mobility.
//
// Schedules are deterministic functions of their seed: GraphAt(r) always
// returns the same topology for the same round, regardless of query order.
package dyngraph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/xrand"
)

// Schedule supplies the topology for each round of an execution.
type Schedule interface {
	// GraphAt returns the topology for round r >= 1. Implementations must be
	// deterministic in r and must respect Tau: GraphAt(r) == GraphAt(r') for
	// any r, r' in the same epoch of Tau() rounds.
	GraphAt(r int) *graph.Graph

	// Tau returns the guaranteed stability factor τ >= 1. Infinity (a never-
	// changing topology) is reported as math.MaxInt.
	Tau() int

	// N returns the (constant) number of nodes.
	N() int

	// MaxDegree returns an upper bound on Δ over all rounds.
	MaxDegree() int

	// Alpha returns the dynamic graph's vertex expansion — the minimum over
	// all constituent graphs — when known, else NaN.
	Alpha() float64

	// Name returns a short human-readable label for reports.
	Name() string
}

// InfiniteTau is the Tau() value reported by schedules that never change.
const InfiniteTau = math.MaxInt

// Static wraps a single graph as a never-changing schedule (τ = ∞).
type Static struct {
	family gen.Family
}

// NewStatic returns a schedule that always serves f's graph.
func NewStatic(f gen.Family) *Static { return &Static{family: f} }

func (s *Static) GraphAt(r int) *graph.Graph {
	if r < 1 {
		panic("dyngraph: round must be >= 1")
	}
	return s.family.Graph
}
func (s *Static) Tau() int       { return InfiniteTau }
func (s *Static) N() int         { return s.family.N() }
func (s *Static) MaxDegree() int { return s.family.MaxDegree() }
func (s *Static) Alpha() float64 { return s.family.Alpha }
func (s *Static) Name() string   { return "static/" + s.family.Name }

// epoch returns the 0-based epoch index of round r under stability tau.
func epoch(r, tau int) int {
	if r < 1 {
		panic("dyngraph: round must be >= 1")
	}
	return (r - 1) / tau
}

// Regenerate produces a fresh graph from a family generator every τ rounds.
// Each epoch's graph is generated with a seed derived from (seed, epoch), so
// random access is cheap and deterministic. All epochs share the generator,
// hence the same analytic Δ and α.
//
// Generated graphs are memoized keyed by their epoch seed (a pure function of
// (seed, epoch)), so re-reading rounds of a recent epoch — the pattern of
// both simulations and Validate — never re-runs the generator. The memo is
// bounded: once it holds regenMemoCap graphs the oldest entry is evicted.
type Regenerate struct {
	generate func(seed uint64) gen.Family
	seed     uint64
	tau      int
	name     string

	proto gen.Family // epoch-0 instance, used for metadata

	memo     map[uint64]*graph.Graph
	memoFIFO []uint64 // insertion order, for eviction
}

// regenMemoCap bounds Regenerate's per-epoch memo. Simulations walk epochs
// in order with occasional short look-backs, so a small window is enough.
const regenMemoCap = 16

// NewRegenerate builds a schedule that regenerates the topology every tau
// rounds by calling generate with per-epoch seeds.
func NewRegenerate(name string, tau int, seed uint64, generate func(seed uint64) gen.Family) *Regenerate {
	if tau < 1 {
		panic("dyngraph: tau must be >= 1")
	}
	proto := generate(xrand.Mix3(seed, 0, 0))
	s := &Regenerate{
		generate: generate,
		seed:     seed,
		tau:      tau,
		name:     name,
		proto:    proto,
		memo:     make(map[uint64]*graph.Graph, regenMemoCap),
	}
	s.remember(xrand.Mix3(seed, 0, 0), proto.Graph)
	return s
}

func (s *Regenerate) remember(key uint64, g *graph.Graph) {
	if len(s.memoFIFO) >= regenMemoCap {
		delete(s.memo, s.memoFIFO[0])
		s.memoFIFO = s.memoFIFO[1:]
	}
	s.memo[key] = g
	s.memoFIFO = append(s.memoFIFO, key)
}

func (s *Regenerate) GraphAt(r int) *graph.Graph {
	key := xrand.Mix3(s.seed, uint64(epoch(r, s.tau)), 0)
	if g, ok := s.memo[key]; ok {
		return g
	}
	g := s.generate(key).Graph
	s.remember(key, g)
	return g
}
func (s *Regenerate) Tau() int       { return s.tau }
func (s *Regenerate) N() int         { return s.proto.N() }
func (s *Regenerate) MaxDegree() int { return s.proto.MaxDegree() }
func (s *Regenerate) Alpha() float64 { return s.proto.Alpha }
func (s *Regenerate) Name() string   { return fmt.Sprintf("regen/%s/tau=%d", s.name, s.tau) }

// Permuted keeps a fixed graph shape but relabels which node occupies which
// position every τ rounds, via a fresh uniform permutation per epoch. This
// is the adversarial schedule for leader election: the node holding the
// minimum UID is relocated every epoch, so no algorithm can rely on
// persistent neighborhoods — while Δ and α stay exactly those of the base
// family in every round.
type Permuted struct {
	base gen.Family
	seed uint64
	tau  int

	rng     xrand.RNG
	perm    []int // per-epoch permutation scratch, reused across epochs
	scratch graph.RelabelScratch

	cachedEpoch int
	cached      *graph.Graph
}

// NewPermuted builds a permuted schedule over the base family.
func NewPermuted(base gen.Family, tau int, seed uint64) *Permuted {
	if tau < 1 {
		panic("dyngraph: tau must be >= 1")
	}
	s := &Permuted{base: base, seed: seed, tau: tau, perm: make([]int, base.N()), cachedEpoch: -1}
	s.cached = s.build(0)
	s.cachedEpoch = 0
	return s
}

// build materializes epoch e's relabeling as a permutation view over the
// immutable base CSR: an O(n+m) RelabelInto with no Builder and no sort,
// with the inverse-permutation and cursor scratch reused across epochs so a
// 1M-node epoch boundary allocates only the result arrays. The result is
// bit-identical (graph.Equal) to rebuilding the permuted edge set from
// scratch; TestPermutedRelabelMatchesBuilder pins this for 100 epochs.
// The result's own arrays are fresh per epoch on purpose — consumers like
// Validate hold the previous epoch's graph across the boundary.
func (s *Permuted) build(e int) *graph.Graph {
	s.rng.Reseed(s.seed, uint64(e), 0x9e) // same stream as Derive(seed, e, 0x9e)
	s.rng.PermInto(s.perm)
	return s.base.Graph.RelabelInto(s.perm, &s.scratch)
}

func (s *Permuted) GraphAt(r int) *graph.Graph {
	e := epoch(r, s.tau)
	if e != s.cachedEpoch {
		s.cached = s.build(e)
		s.cachedEpoch = e
	}
	return s.cached
}
func (s *Permuted) Tau() int       { return s.tau }
func (s *Permuted) N() int         { return s.base.N() }
func (s *Permuted) MaxDegree() int { return s.base.MaxDegree() }
func (s *Permuted) Alpha() float64 { return s.base.Alpha }
func (s *Permuted) Name() string   { return fmt.Sprintf("permuted/%s/tau=%d", s.base.Name, s.tau) }

// Churn applies a burst of degree-preserving double-edge swaps to the
// topology every τ rounds, modeling gradual link churn: most of the graph
// persists across an epoch boundary, but a tunable fraction of edges move.
// Degrees (hence Δ) are invariant; α is reported as NaN because churn does
// not preserve expansion exactly.
//
// Churn supports only forward access with arbitrary re-reads inside the
// current epoch (the access pattern of a simulation); it replays from the
// start if asked for an earlier epoch.
type Churn struct {
	base          gen.Family
	seed          uint64
	tau           int
	swapsPerEpoch int

	curEpoch int
	chain    *gen.Swapper
	backup   [][2]int32 // the edges at the current epoch's start, reused across epochs
	cur      *graph.Graph
	rng      *xrand.RNG
}

// NewChurn builds a churn schedule over base, performing swapsPerEpoch
// accepted-or-rejected swap attempts at each epoch boundary.
func NewChurn(base gen.Family, tau, swapsPerEpoch int, seed uint64) *Churn {
	if tau < 1 || swapsPerEpoch < 0 {
		panic("dyngraph: bad churn parameters")
	}
	c := &Churn{base: base, seed: seed, tau: tau, swapsPerEpoch: swapsPerEpoch}
	c.reset()
	return c
}

func (c *Churn) reset() {
	c.curEpoch = 0
	c.rng = xrand.Derive(c.seed, 0xc4, 0)
	edges := make([][2]int32, 0, c.base.Graph.M())
	c.base.Graph.Edges(func(u, v int) { edges = append(edges, [2]int32{int32(u), int32(v)}) })
	c.chain = gen.NewSwapper(c.base.N(), edges)
	c.cur = c.base.Graph
}

// advanceOneEpoch applies one epoch's worth of swaps and rebuilds the graph,
// retrying the burst if it disconnected the topology.
func (c *Churn) advanceOneEpoch() {
	edges := c.chain.Edges()
	if len(edges) < 2 || c.swapsPerEpoch == 0 {
		c.curEpoch++
		return
	}
	c.backup = append(c.backup[:0], edges...)
	for attempt := 0; ; attempt++ {
		for i := 0; i < c.swapsPerEpoch; i++ {
			c.chain.Try(c.rng)
		}
		g := c.chain.Graph()
		if g.Connected() {
			c.cur = g
			c.curEpoch++
			return
		}
		// Restore the epoch's starting edges, then retry with fresh
		// randomness (the rng has advanced) or, after 51 attempts, give up
		// churning this epoch and keep the previous topology (a legal
		// dynamic graph — changes are optional).
		c.chain.Restore(c.backup)
		if attempt > 50 {
			c.curEpoch++
			return
		}
	}
}

func (c *Churn) GraphAt(r int) *graph.Graph {
	e := epoch(r, c.tau)
	if e < c.curEpoch {
		c.reset()
	}
	for c.curEpoch < e {
		c.advanceOneEpoch()
	}
	return c.cur
}
func (c *Churn) Tau() int       { return c.tau }
func (c *Churn) N() int         { return c.base.N() }
func (c *Churn) MaxDegree() int { return c.base.MaxDegree() }
func (c *Churn) Alpha() float64 { return math.NaN() }
func (c *Churn) Name() string {
	return fmt.Sprintf("churn/%s/tau=%d/swaps=%d", c.base.Name, c.tau, c.swapsPerEpoch)
}

// Waypoint is a random-waypoint mobility schedule: nodes live on the unit
// square, pick random destinations, and move toward them at a per-epoch
// speed; the topology of each epoch is the unit-disk graph of the current
// positions, augmented (when necessary) with a chain through the nodes in
// x-order as a connectivity backstop — mirroring how smartphone meshes relay
// through intermediate devices rather than partitioning.
//
// Like Churn, Waypoint replays from the start when asked for an epoch before
// the current one.
type Waypoint struct {
	n      int
	radius float64
	speed  float64
	tau    int
	seed   uint64

	curEpoch int
	px, py   []float64
	dx, dy   []float64
	cells    []cellNode // rebuild's bucketing scratch, reused across epochs
	cur      *graph.Graph
	maxDeg   int
	rng      *xrand.RNG
}

// cellNode places a node in the grid cell (cx, cy) of rebuild's index.
type cellNode struct{ cx, cy, node int }

func compareCellNodes(a, b cellNode) int {
	if c := cmp.Compare(a.cx, b.cx); c != 0 {
		return c
	}
	if c := cmp.Compare(a.cy, b.cy); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// NewWaypoint creates a mobility schedule for n nodes with communication
// radius radius (unit square), per-epoch movement speed, and stability tau.
func NewWaypoint(n int, radius, speed float64, tau int, seed uint64) *Waypoint {
	if n < 2 || radius <= 0 || speed < 0 || tau < 1 {
		panic("dyngraph: bad waypoint parameters")
	}
	w := &Waypoint{n: n, radius: radius, speed: speed, tau: tau, seed: seed}
	w.reset()
	return w
}

func (w *Waypoint) reset() {
	w.curEpoch = 0
	w.rng = xrand.Derive(w.seed, 0x3a, 0)
	w.px = make([]float64, w.n)
	w.py = make([]float64, w.n)
	w.dx = make([]float64, w.n)
	w.dy = make([]float64, w.n)
	for i := 0; i < w.n; i++ {
		w.px[i], w.py[i] = w.rng.Float64(), w.rng.Float64()
		w.dx[i], w.dy[i] = w.rng.Float64(), w.rng.Float64()
	}
	w.rebuild()
}

func (w *Waypoint) step() {
	for i := 0; i < w.n; i++ {
		vx, vy := w.dx[i]-w.px[i], w.dy[i]-w.py[i]
		dist := math.Hypot(vx, vy)
		if dist <= w.speed {
			// Arrived: pick a new destination.
			w.px[i], w.py[i] = w.dx[i], w.dy[i]
			w.dx[i], w.dy[i] = w.rng.Float64(), w.rng.Float64()
			continue
		}
		w.px[i] += vx / dist * w.speed
		w.py[i] += vy / dist * w.speed
	}
	w.rebuild()
	w.curEpoch++
}

// rebuild constructs the unit-disk graph over current positions via a grid
// index, then adds an x-order chain among consecutive non-adjacent nodes if
// the disk graph is disconnected.
//
// Sorting the nodes by (cell, id) makes each cell's nodes one run, found by
// binary search. Scanning the nine cells around each cell for pairs u < v
// meets every pair of nearby nodes exactly once, and the Builder sorts its
// edges, so the order of the scan never reaches the graph.
func (w *Waypoint) rebuild() {
	cell := w.radius
	cells := w.cells[:0]
	for i := 0; i < w.n; i++ {
		cells = append(cells, cellNode{int(w.px[i] / cell), int(w.py[i] / cell), i})
	}
	slices.SortFunc(cells, compareCellNodes)
	w.cells = cells
	bucket := func(cx, cy int) []cellNode {
		lo, _ := slices.BinarySearchFunc(cells, cellNode{cx, cy, -1}, compareCellNodes)
		hi := lo
		for hi < len(cells) && cells[hi].cx == cx && cells[hi].cy == cy {
			hi++
		}
		return cells[lo:hi]
	}
	b := graph.NewBuilder(w.n)
	r2 := w.radius * w.radius
	for lo := 0; lo < len(cells); {
		cx, cy := cells[lo].cx, cells[lo].cy
		home := bucket(cx, cy)
		for ddx := -1; ddx <= 1; ddx++ {
			for ddy := -1; ddy <= 1; ddy++ {
				other := bucket(cx+ddx, cy+ddy)
				for _, cu := range home {
					u := cu.node
					for _, cv := range other {
						if v := cv.node; u < v {
							ux, uy := w.px[u]-w.px[v], w.py[u]-w.py[v]
							if ux*ux+uy*uy <= r2 {
								b.AddEdge(u, v)
							}
						}
					}
				}
			}
		}
		lo += len(home)
	}
	g := b.MustBuild()
	if !g.Connected() {
		// Connectivity backstop: chain nodes in x-order, skipping pairs
		// the disk graph already joins.
		order := make([]int, w.n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			if w.px[order[i]] != w.px[order[j]] {
				return w.px[order[i]] < w.px[order[j]]
			}
			return order[i] < order[j]
		})
		for i := 0; i+1 < w.n; i++ {
			if u, v := order[i], order[i+1]; !g.HasEdge(u, v) {
				b.AddEdge(u, v)
			}
		}
		g = b.MustBuild()
	}
	w.cur = g
	if g.MaxDegree() > w.maxDeg {
		w.maxDeg = g.MaxDegree()
	}
}

func (w *Waypoint) GraphAt(r int) *graph.Graph {
	e := epoch(r, w.tau)
	if e < w.curEpoch {
		w.reset()
	}
	for w.curEpoch < e {
		w.step()
	}
	return w.cur
}
func (w *Waypoint) Tau() int { return w.tau }
func (w *Waypoint) N() int   { return w.n }

// MaxDegree returns the maximum degree observed so far; it can grow as more
// epochs are materialized. Unit-disk degree is bounded by local density.
func (w *Waypoint) MaxDegree() int { return w.maxDeg }
func (w *Waypoint) Alpha() float64 { return math.NaN() }
func (w *Waypoint) Name() string {
	return fmt.Sprintf("waypoint/n=%d/r=%.2f/tau=%d", w.n, w.radius, w.tau)
}

// Switch serves schedule A for the first switchRound-1 rounds and B from
// switchRound on. It models the self-stabilization scenario of Section VIII:
// isolated components that have run for arbitrary durations are joined into
// one network. Tau is the minimum of the parts (and the switch itself is a
// topology change, so callers should align switchRound with epoch
// boundaries if they need strict τ guarantees across the seam).
type Switch struct {
	A, B        Schedule
	SwitchRound int
}

// NewSwitch composes two schedules at switchRound.
func NewSwitch(a, b Schedule, switchRound int) *Switch {
	if a.N() != b.N() {
		panic("dyngraph: Switch requires equal node counts")
	}
	if switchRound < 1 {
		panic("dyngraph: switch round must be >= 1")
	}
	return &Switch{A: a, B: b, SwitchRound: switchRound}
}

func (s *Switch) GraphAt(r int) *graph.Graph {
	if r < s.SwitchRound {
		return s.A.GraphAt(r)
	}
	return s.B.GraphAt(r - s.SwitchRound + 1)
}
func (s *Switch) Tau() int {
	t := s.A.Tau()
	if s.B.Tau() < t {
		t = s.B.Tau()
	}
	return t
}
func (s *Switch) N() int { return s.A.N() }
func (s *Switch) MaxDegree() int {
	d := s.A.MaxDegree()
	if s.B.MaxDegree() > d {
		d = s.B.MaxDegree()
	}
	return d
}
func (s *Switch) Alpha() float64 {
	a, b := s.A.Alpha(), s.B.Alpha()
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return math.Min(a, b)
}
func (s *Switch) Name() string {
	return fmt.Sprintf("switch(%s->%s@%d)", s.A.Name(), s.B.Name(), s.SwitchRound)
}

// Validate checks that sched respects its declared stability factor over the
// first rounds rounds: the graph may change only at epoch boundaries.
// It returns an error naming the first offending round.
func Validate(sched Schedule, rounds int) error {
	tau := sched.Tau()
	if tau == InfiniteTau {
		first := sched.GraphAt(1)
		for r := 2; r <= rounds; r++ {
			if !sched.GraphAt(r).Equal(first) {
				return fmt.Errorf("dyngraph: static schedule %s changed at round %d", sched.Name(), r)
			}
		}
		return nil
	}
	prev := sched.GraphAt(1)
	lastChange := 1
	for r := 2; r <= rounds; r++ {
		g := sched.GraphAt(r)
		if !g.Equal(prev) {
			if r-lastChange < tau {
				return fmt.Errorf("dyngraph: schedule %s changed at round %d, only %d rounds after round %d (τ=%d)",
					sched.Name(), r, r-lastChange, lastChange, tau)
			}
			lastChange = r
			prev = g
		}
	}
	return nil
}
