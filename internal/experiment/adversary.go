package experiment

import (
	"cmp"
	"math"
	"slices"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/sim"
)

// adaptiveStars is an *adaptive* adversarial dynamic graph: every τ rounds
// it reads the current algorithm state and rebuilds the topology as a line
// of stars with nodes placed in ascending order of their current smallest
// ID pair. Any "progress frontier" cut (nodes below a pair threshold vs the
// rest) is then a prefix of the line and has a cut matching of size O(1),
// which is the worst case the Theorem VII.2 analysis ranges over.
//
// This matters because *oblivious* schedules (fresh random permutations
// every epoch) empirically help convergence — relocated nodes carry small
// pairs across bottlenecks — so the τ-dependence of bit convergence only
// becomes visible against an adversary that re-buries the frontier each
// epoch. The dynamic graph model permits this: the paper's bounds hold for
// every τ-stable sequence, including state-adaptive ones.
//
// The schedule reports the line-of-stars' α (the frontier cut realizes it),
// and Δ = points + 2.
type adaptiveStars struct {
	n      int
	points int
	tau    int

	// pairs reads each node's current smallest ID pair; set via SetSource
	// after the protocols exist.
	pairs func(node int) core.IDPair
	// keys is rebuild's sort buffer, reused across epochs. Each entry
	// carries its node id, so the order the previous sort left behind does
	// not change the result.
	keys []starKey

	cachedEpoch int
	cached      *graph.Graph
}

// starKey places a node on the line: by its current pair, then by its id.
type starKey struct {
	pair core.IDPair
	node int32
}

// compareStarKeys orders keys by (pair, node id): a strict total order, so
// every sort algorithm and every starting order yield the same layout.
func compareStarKeys(x, y starKey) int {
	if x.pair != y.pair {
		if x.pair.Less(y.pair) {
			return -1
		}
		return 1
	}
	return cmp.Compare(x.node, y.node)
}

var _ dyngraph.Schedule = (*adaptiveStars)(nil)

// newAdaptiveStars builds the adversary for n nodes with the given star
// size. n must be a multiple of points+1.
func newAdaptiveStars(n, points, tau int) *adaptiveStars {
	if points < 1 || n%(points+1) != 0 || n/(points+1) < 2 {
		panic("experiment: adaptiveStars needs n divisible by points+1 with >= 2 stars")
	}
	if tau < 1 {
		panic("experiment: adaptiveStars needs tau >= 1")
	}
	keys := make([]starKey, n)
	for u := range keys {
		keys[u].node = int32(u)
	}
	return &adaptiveStars{n: n, points: points, tau: tau, keys: keys, cachedEpoch: -1}
}

// SetSource installs the state reader. Must be called before the first
// GraphAt.
func (a *adaptiveStars) SetSource(protocols []sim.Protocol) {
	a.pairs = func(node int) core.IDPair {
		switch p := protocols[node].(type) {
		case *core.BitConv:
			return p.Best()
		case *core.AsyncBitConv:
			return p.Best()
		case *core.BlindGossip:
			return core.IDPair{UID: p.Leader()}
		default:
			panic("experiment: adaptiveStars supports BitConv, AsyncBitConv, BlindGossip")
		}
	}
}

func (a *adaptiveStars) GraphAt(r int) *graph.Graph {
	if r < 1 {
		panic("experiment: round must be >= 1")
	}
	e := (r - 1) / a.tau
	if e != a.cachedEpoch {
		a.cached = a.rebuild()
		a.cachedEpoch = e
	}
	return a.cached
}

// rebuild sorts nodes by current pair (ascending, ties by node id) and lays
// them into a line of stars: star i gets the next 1+points nodes (first the
// center, then its leaves). It writes the CSR directly, in O(n + m) after
// the sort: a leaf's list is its center, and a center's list is its leaves
// plus its neighboring centers, sorted. The arrays are fresh every epoch
// because graphs are immutable and the engine may still hold the last one.
func (a *adaptiveStars) rebuild() *graph.Graph {
	if a.pairs == nil {
		panic("experiment: adaptiveStars used before SetSource")
	}
	keys := a.keys
	for i := range keys {
		keys[i].pair = a.pairs(int(keys[i].node))
	}
	slices.SortFunc(keys, compareStarKeys)

	size := a.points + 1
	stars := a.n / size
	offsets := make([]int32, a.n+1)
	for s := 0; s < stars; s++ {
		block := keys[s*size : (s+1)*size]
		deg := a.points
		if s > 0 {
			deg++
		}
		if s+1 < stars {
			deg++
		}
		offsets[block[0].node+1] = int32(deg)
		for _, leaf := range block[1:] {
			offsets[leaf.node+1] = 1
		}
	}
	for u := 0; u < a.n; u++ {
		offsets[u+1] += offsets[u]
	}
	adj := make([]int32, offsets[a.n])
	for s := 0; s < stars; s++ {
		block := keys[s*size : (s+1)*size]
		center := block[0].node
		list := adj[offsets[center]:offsets[center+1]]
		for i, leaf := range block[1:] {
			adj[offsets[leaf.node]] = center
			list[i] = leaf.node
		}
		i := a.points
		if s > 0 {
			list[i] = keys[(s-1)*size].node
			i++
		}
		if s+1 < stars {
			list[i] = keys[(s+1)*size].node
		}
		slices.Sort(list)
	}
	return graph.MustFromCSR(offsets, adj)
}

func (a *adaptiveStars) Tau() int       { return a.tau }
func (a *adaptiveStars) N() int         { return a.n }
func (a *adaptiveStars) MaxDegree() int { return a.points + 2 }
func (a *adaptiveStars) Alpha() float64 {
	return 1 / math.Floor(float64(a.n)/2)
}
func (a *adaptiveStars) Name() string { return "adaptive-stars" }
