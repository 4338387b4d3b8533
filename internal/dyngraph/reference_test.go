package dyngraph

import (
	"slices"
	"sort"
	"testing"

	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/xrand"
)

// mapChurn is Churn as it was before gen.Swapper, kept as the reference:
// its own copy of the swap with a map from edge to index, the same backup
// and retry loop, and a Builder per epoch. It counts its retries and the
// epochs it gave up on.
type mapChurn struct {
	n, swapsPerEpoch  int
	edges             [][2]int32
	edgeSet           map[[2]int32]int
	rng               *xrand.RNG
	cur               *graph.Graph
	retries, givenUps int
}

func newMapChurn(base gen.Family, swapsPerEpoch int, seed uint64) *mapChurn {
	c := &mapChurn{n: base.N(), swapsPerEpoch: swapsPerEpoch, rng: xrand.Derive(seed, 0xc4, 0), cur: base.Graph}
	base.Graph.Edges(func(u, v int) { c.edges = append(c.edges, [2]int32{int32(u), int32(v)}) })
	c.rebuildSet()
	return c
}

func (c *mapChurn) rebuildSet() {
	c.edgeSet = make(map[[2]int32]int, len(c.edges))
	for i, e := range c.edges {
		c.edgeSet[e] = i
	}
}

func (c *mapChurn) advance() {
	m := len(c.edges)
	if m < 2 || c.swapsPerEpoch == 0 {
		return
	}
	backup := slices.Clone(c.edges)
	for attempt := 0; ; attempt++ {
		for i := 0; i < c.swapsPerEpoch; i++ {
			c.trySwap()
		}
		b := graph.NewBuilder(c.n)
		for _, e := range c.edges {
			b.AddEdge(int(e[0]), int(e[1]))
		}
		if g := b.MustBuild(); g.Connected() {
			c.cur = g
			return
		}
		c.edges = append(c.edges[:0], backup...)
		c.rebuildSet()
		if attempt > 50 {
			c.givenUps++
			return
		}
		c.retries++
	}
}

func (c *mapChurn) trySwap() {
	m := len(c.edges)
	i, j := c.rng.Intn(m), c.rng.Intn(m)
	if i == j {
		return
	}
	a, b := c.edges[i][0], c.edges[i][1]
	d, e := c.edges[j][0], c.edges[j][1]
	if c.rng.Bool() {
		d, e = e, d
	}
	if a == e || d == b || a == d || b == e {
		return
	}
	ne1, ne2 := [2]int32{min(a, e), max(a, e)}, [2]int32{min(d, b), max(d, b)}
	if _, dup := c.edgeSet[ne1]; dup {
		return
	}
	if _, dup := c.edgeSet[ne2]; dup {
		return
	}
	delete(c.edgeSet, c.edges[i])
	delete(c.edgeSet, c.edges[j])
	c.edges[i], c.edges[j] = ne1, ne2
	c.edgeSet[ne1] = i
	c.edgeSet[ne2] = j
}

// TestChurnMatchesMapReference holds Churn to the map version for 150
// epochs on bases where churn keeps the graph connected, where it often
// disconnects it (a cycle: retries) and where it nearly always does (a
// line of stars, a tree, under many swaps: epochs given up). Edge lists
// and graphs must match after every epoch.
func TestChurnMatchesMapReference(t *testing.T) {
	cases := []struct {
		base  gen.Family
		swaps int
	}{
		{gen.RandomRegular(60, 4, 3), 15},
		{gen.RandomRegular(80, 6, 1), 20},
		{gen.SqrtLineOfStars(5), 6},
		{gen.Cycle(24), 2},
		{gen.SqrtLineOfStars(5), 60},
	}
	retries, givenUps := 0, 0
	for k, tc := range cases {
		c := NewChurn(tc.base, 1, tc.swaps, uint64(70+k))
		ref := newMapChurn(tc.base, tc.swaps, uint64(70+k))
		for e := 1; e <= 150; e++ {
			g := c.GraphAt(e + 1) // tau = 1: round e+1 is epoch e
			ref.advance()
			if !slices.Equal(c.chain.Edges(), ref.edges) || !g.Equal(ref.cur) {
				t.Fatalf("case %d (%s): epoch %d differs from the map version", k, tc.base.Name, e)
			}
		}
		retries += ref.retries
		givenUps += ref.givenUps
	}
	if retries == 0 || givenUps == 0 {
		t.Fatalf("%d retries and %d epochs given up; want both", retries, givenUps)
	}
}

// refWaypointGraph is Waypoint.rebuild as it was before the sorted cell
// index, kept as the reference: map buckets in first-seen order, a map of
// edges already added, and sort.Slice for the backstop's x-order. It also
// reports whether the backstop ran.
func refWaypointGraph(w *Waypoint) (*graph.Graph, bool) {
	cell := w.radius
	type cellKey struct{ cx, cy int }
	buckets := make(map[cellKey][]int)
	var order []cellKey
	for i := 0; i < w.n; i++ {
		k := cellKey{int(w.px[i] / cell), int(w.py[i] / cell)}
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], i)
	}
	b := graph.NewBuilder(w.n)
	added := make(map[[2]int32]bool)
	addEdge := func(u, v int) {
		e := [2]int32{int32(min(u, v)), int32(max(u, v))}
		if !added[e] {
			added[e] = true
			b.AddEdge(int(e[0]), int(e[1]))
		}
	}
	r2 := w.radius * w.radius
	for _, k := range order {
		for ddx := -1; ddx <= 1; ddx++ {
			for ddy := -1; ddy <= 1; ddy++ {
				for _, u := range buckets[k] {
					for _, v := range buckets[cellKey{k.cx + ddx, k.cy + ddy}] {
						if u < v {
							ux, uy := w.px[u]-w.px[v], w.py[u]-w.py[v]
							if ux*ux+uy*uy <= r2 {
								addEdge(u, v)
							}
						}
					}
				}
			}
		}
	}
	g := b.MustBuild()
	if g.Connected() {
		return g, false
	}
	chain := make([]int, w.n)
	for i := range chain {
		chain[i] = i
	}
	sort.Slice(chain, func(i, j int) bool {
		if w.px[chain[i]] != w.px[chain[j]] {
			return w.px[chain[i]] < w.px[chain[j]]
		}
		return chain[i] < chain[j]
	})
	for i := 0; i+1 < w.n; i++ {
		addEdge(chain[i], chain[i+1])
	}
	return b.MustBuild(), true
}

// TestWaypointRebuildMatchesReference holds every epoch of 200-epoch runs
// at several radii to the map version over the same positions. The
// smallest radius leaves the disk graph disconnected, so the backstop runs.
func TestWaypointRebuildMatchesReference(t *testing.T) {
	backstops := 0
	for _, tc := range []struct {
		n      int
		radius float64
	}{{60, 0.08}, {80, 0.2}, {80, 0.35}, {40, 0.9}, {120, 0.15}} {
		w := NewWaypoint(tc.n, tc.radius, 0.05, 1, uint64(tc.n))
		for e := 0; e < 200; e++ {
			g := w.GraphAt(e + 1)
			want, backstop := refWaypointGraph(w)
			if !g.Equal(want) {
				t.Fatalf("n=%d r=%v: epoch %d differs from the map version", tc.n, tc.radius, e)
			}
			if backstop {
				backstops++
			}
		}
	}
	if backstops == 0 {
		t.Fatal("no epoch ran the connectivity backstop")
	}
}

// BenchmarkWaypointEpoch advances E10's waypoint schedule (80 nodes,
// radius 0.35, speed 0.05) one epoch per iteration.
func BenchmarkWaypointEpoch(b *testing.B) {
	w := NewWaypoint(80, 0.35, 0.05, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.GraphAt(i + 1)
	}
}
