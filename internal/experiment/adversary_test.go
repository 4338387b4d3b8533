package experiment

import (
	"sort"
	"testing"

	"mobiletel/internal/core"
	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// referenceStars is the line-of-stars layout built the plain way: a stable
// sort of node ids by (pair, id) and a graph.Builder. rebuild must produce
// a graph.Equal graph for every pair assignment.
func referenceStars(points int, pairs []core.IDPair) *graph.Graph {
	n := len(pairs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := pairs[order[i]], pairs[order[j]]
		if pi != pj {
			return pi.Less(pj)
		}
		return order[i] < order[j]
	})

	stars := n / (points + 1)
	b := graph.NewBuilder(n)
	centers := make([]int, stars)
	for s := 0; s < stars; s++ {
		block := order[s*(points+1) : (s+1)*(points+1)]
		centers[s] = block[0]
		for _, leaf := range block[1:] {
			b.AddEdge(block[0], leaf)
		}
	}
	for s := 0; s+1 < stars; s++ {
		b.AddEdge(centers[s], centers[s+1])
	}
	return b.MustBuild()
}

// currentPairs reads every node's pair through the adversary's source.
func currentPairs(a *adaptiveStars) []core.IDPair {
	pairs := make([]core.IDPair, a.n)
	for u := range pairs {
		pairs[u] = a.pairs(u)
	}
	return pairs
}

// TestAdaptiveStarsMatchesReference draws pair assignments from a small
// domain, so many nodes share a pair and the node-id tie-break decides
// their places, and checks rebuild against the reference layout. The
// adversary is reused across draws, so later sorts start from the previous
// draw's order.
func TestAdaptiveStarsMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, points int }{{16, 7}, {24, 3}, {64, 7}, {128, 15}, {30, 1}} {
		adv := newAdaptiveStars(c.n, c.points, 1)
		rng := xrand.New(uint64(c.n*100 + c.points))
		pairs := make([]core.IDPair, c.n)
		adv.pairs = func(u int) core.IDPair { return pairs[u] }
		for draw := 0; draw < 50; draw++ {
			domain := 1 + draw%5 // draw 0: every node holds the same pair
			for u := range pairs {
				pairs[u] = core.IDPair{UID: uint64(rng.Intn(domain)), Tag: uint64(rng.Intn(2))}
			}
			if got, want := adv.rebuild(), referenceStars(c.points, pairs); !got.Equal(want) {
				t.Fatalf("n=%d points=%d draw %d: rebuild %v differs from reference %v", c.n, c.points, draw, got, want)
			}
		}
	}
}

// checkedStars is an adaptiveStars that compares every epoch's graph, the
// one the engine actually runs on, against the reference layout.
type checkedStars struct {
	*adaptiveStars
	t      *testing.T
	epoch  int
	epochs int
}

func (c *checkedStars) GraphAt(r int) *graph.Graph {
	g := c.adaptiveStars.GraphAt(r)
	if e := (r - 1) / c.tau; e != c.epoch {
		c.epoch = e
		c.epochs++
		if want := referenceStars(c.points, currentPairs(c.adaptiveStars)); !g.Equal(want) {
			c.t.Fatalf("round %d: adversary graph %v differs from reference %v", r, g, want)
		}
	}
	return g
}

// TestAdaptiveStarsRunMatchesReference checks every epoch of short runs with
// each supported source against the reference layout.
func TestAdaptiveStarsRunMatchesReference(t *testing.T) {
	n, points := 64, 7
	params := core.DefaultBitConvParams(n, points+2)
	sources := []struct {
		name    string
		tagBits int
		build   func(uids []uint64) []sim.Protocol
	}{
		{"bitconv", 1, func(uids []uint64) []sim.Protocol {
			protocols, _ := core.NewBitConvNetwork(uids, params, 2)
			return protocols
		}},
		{"asyncbitconv", core.TagBitsNeeded(params), func(uids []uint64) []sim.Protocol {
			protocols, _ := core.NewAsyncBitConvNetwork(uids, params, 2)
			return protocols
		}},
		{"blindgossip", 0, func(uids []uint64) []sim.Protocol {
			return core.NewBlindGossipNetwork(uids)
		}},
	}
	const rounds = 300
	for _, src := range sources {
		for _, tau := range []int{1, 3} {
			protocols := src.build(core.UniqueUIDs(n, 7))
			adv := newAdaptiveStars(n, points, tau)
			adv.SetSource(protocols)
			sched := &checkedStars{adaptiveStars: adv, t: t, epoch: -1}
			eng, err := sim.New(sched, protocols, sim.Config{Seed: 5, TagBits: src.tagBits, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			eng.RunRounds(1, rounds)
			if want := (rounds + tau - 1) / tau; sched.epochs != want {
				t.Fatalf("%s τ=%d: checked %d epochs, want %d", src.name, tau, sched.epochs, want)
			}
		}
	}
}

func TestAdaptiveStarsStructure(t *testing.T) {
	n, points, tau := 32, 7, 3
	adv := newAdaptiveStars(n, points, tau)
	uids := core.UniqueUIDs(n, 1)
	params := core.DefaultBitConvParams(n, points+2)
	protocols, _ := core.NewBitConvNetwork(uids, params, 2)
	adv.SetSource(protocols)

	g := adv.GraphAt(1)
	if g.N() != n {
		t.Fatalf("n=%d", g.N())
	}
	if !g.Connected() {
		t.Fatal("adversary graph disconnected")
	}
	if g.MaxDegree() > points+2 {
		t.Fatalf("Δ=%d exceeds declared %d", g.MaxDegree(), points+2)
	}
	// Stars: exactly n/(points+1) centers with degree >= points.
	centers := 0
	for u := 0; u < n; u++ {
		if g.Degree(u) >= points {
			centers++
		}
	}
	if centers != n/(points+1) {
		t.Fatalf("found %d hub-degree nodes, want %d", centers, n/(points+1))
	}
}

func TestAdaptiveStarsRespectsTau(t *testing.T) {
	n, points, tau := 32, 7, 4
	adv := newAdaptiveStars(n, points, tau)
	uids := core.UniqueUIDs(n, 3)
	params := core.DefaultBitConvParams(n, points+2)
	protocols, _ := core.NewBitConvNetwork(uids, params, 4)
	adv.SetSource(protocols)
	if err := dyngraph.Validate(adv, 3*tau); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveStarsSortsFrontier(t *testing.T) {
	// The node with the globally smallest pair must be placed as the first
	// star's center (position 0 in the sorted layout) — i.e. its degree is
	// hub-sized and its line neighbor holds the next-smallest block.
	n, points := 24, 7
	adv := newAdaptiveStars(n, points, 1)
	uids := core.UniqueUIDs(n, 5)
	params := core.DefaultBitConvParams(n, points+2)
	protocols, tags := core.NewBitConvNetwork(uids, params, 6)
	adv.SetSource(protocols)
	g := adv.GraphAt(1)

	pairs := make([]core.IDPair, n)
	for i := range pairs {
		pairs[i] = core.IDPair{UID: uids[i], Tag: tags[i]}
	}
	minIdx := 0
	for i, p := range pairs {
		if p.Less(pairs[minIdx]) {
			minIdx = i
		}
	}
	if g.Degree(minIdx) < points {
		t.Fatalf("min-pair node %d has degree %d; expected to be a star center", minIdx, g.Degree(minIdx))
	}
}

func TestAdaptiveStarsRejectsBadParams(t *testing.T) {
	cases := []func(){
		func() { newAdaptiveStars(30, 7, 1) }, // 30 % 8 != 0
		func() { newAdaptiveStars(8, 7, 1) },  // single star
		func() { newAdaptiveStars(16, 7, 0) }, // tau < 1
		func() { newAdaptiveStars(16, 0, 1) }, // no leaves
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAdaptiveStarsNeedsSource(t *testing.T) {
	adv := newAdaptiveStars(16, 7, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("GraphAt before SetSource did not panic")
		}
	}()
	adv.GraphAt(1)
}

func TestAdaptiveStarsBlindGossipSource(t *testing.T) {
	n, points := 16, 7
	adv := newAdaptiveStars(n, points, 2)
	uids := core.UniqueUIDs(n, 9)
	protocols := core.NewBlindGossipNetwork(uids)
	adv.SetSource(protocols)
	if !adv.GraphAt(1).Connected() {
		t.Fatal("disconnected")
	}
	// End-to-end election against the adversary still elects the minimum.
	eng, err := sim.New(adv, protocols, sim.Config{Seed: 4, MaxRounds: 5_000_000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.AllLeadersEqual); err != nil {
		t.Fatal(err)
	}
	if protocols[0].Leader() != core.MinUID(uids) {
		t.Fatal("wrong leader under adaptive adversary")
	}
}
