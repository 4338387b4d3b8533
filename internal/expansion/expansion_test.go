package expansion_test

import (
	"math"
	"math/bits"
	"testing"

	"mobiletel/internal/expansion"
	"mobiletel/internal/graph"
	"mobiletel/internal/graph/gen"
	"mobiletel/internal/xrand"
)

func TestExactClique(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 9} {
		f := gen.Clique(n)
		alpha, set := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("K_%d: exact α=%v, analytic %v", n, alpha, f.Alpha)
		}
		if !verify(f.Graph, set, alpha) {
			t.Errorf("K_%d: minimizing set %v does not attain %v", n, set, alpha)
		}
	}
}

func TestExactPath(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 10, 11} {
		f := gen.Path(n)
		alpha, _ := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("path(%d): exact α=%v, analytic %v", n, alpha, f.Alpha)
		}
	}
}

func TestExactCycle(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 12} {
		f := gen.Cycle(n)
		alpha, _ := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("cycle(%d): exact α=%v, analytic %v", n, alpha, f.Alpha)
		}
	}
}

func TestExactStar(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 9, 12} {
		f := gen.Star(n)
		alpha, _ := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("star(%d): exact α=%v, analytic %v", n, alpha, f.Alpha)
		}
	}
}

func TestExactLineOfStars(t *testing.T) {
	cases := []struct{ stars, points int }{{2, 2}, {3, 2}, {4, 3}, {3, 4}}
	for _, c := range cases {
		f := gen.LineOfStars(c.stars, c.points)
		if f.N() > expansion.MaxExactN {
			continue
		}
		alpha, set := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("line-of-stars(%d,%d): exact α=%v, analytic %v (set %v)",
				c.stars, c.points, alpha, f.Alpha, set)
		}
	}
}

func TestExactBarbell(t *testing.T) {
	for _, s := range []int{2, 3, 5, 8} {
		f := gen.Barbell(s)
		if f.N() > expansion.MaxExactN {
			continue
		}
		alpha, _ := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("barbell(%d): exact α=%v, analytic %v", s, alpha, f.Alpha)
		}
	}
}

func TestExactBinaryTree(t *testing.T) {
	for _, levels := range []int{2, 3, 4} {
		f := gen.CompleteBinaryTree(levels)
		alpha, _ := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("binary-tree(%d levels): exact α=%v, analytic %v", levels, alpha, f.Alpha)
		}
	}
}

func TestExactRingOfCliques(t *testing.T) {
	cases := []struct{ k, s int }{{3, 3}, {4, 3}, {4, 4}, {5, 4}, {6, 3}}
	for _, c := range cases {
		f := gen.RingOfCliques(c.k, c.s)
		if f.N() > expansion.MaxExactN {
			continue
		}
		alpha, set := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("ring-of-cliques(%d,%d): exact α=%v, analytic %v (set %v)",
				c.k, c.s, alpha, f.Alpha, set)
		}
	}
}

func TestExactRejectsLargeGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exact on oversized graph did not panic")
		}
	}()
	expansion.Exact(gen.Cycle(expansion.MaxExactN + 1).Graph)
}

func TestExactRejectsTinyGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exact on 1-node graph did not panic")
		}
	}()
	expansion.Exact(graph.NewBuilder(1).MustBuild())
}

func TestSweepIsUpperBound(t *testing.T) {
	// On every small random connected graph, the sweep bound must be >= the
	// exact α and must be attained by a valid cut.
	rng := xrand.New(42)
	for trial := 0; trial < 40; trial++ {
		g := randomConnected(rng, 6+trial%8, 0.35)
		exact, _ := expansion.Exact(g)
		sweep, set := expansion.SweepUpperBound(g)
		if sweep < exact-1e-12 {
			t.Fatalf("sweep %v below exact %v on %v", sweep, exact, g)
		}
		if !verify(g, set, sweep) {
			t.Fatalf("sweep set %v does not attain %v on %v", set, sweep, g)
		}
	}
}

func TestSweepExactOnLineFamilies(t *testing.T) {
	// For path-like families, a BFS sweep from an endpoint finds the true
	// minimum cut, so the bound should be tight.
	for _, n := range []int{8, 13, 20, 51} {
		f := gen.Path(n)
		sweep, _ := expansion.SweepUpperBound(f.Graph)
		if sweep != f.Alpha {
			t.Errorf("path(%d): sweep α=%v, want exact %v", n, sweep, f.Alpha)
		}
	}
	for _, side := range []int{3, 5, 8} {
		f := gen.SqrtLineOfStars(side)
		sweep, _ := expansion.SweepUpperBound(f.Graph)
		if sweep > f.Alpha*1.0000001 {
			t.Errorf("sqrt-line-of-stars(%d): sweep α=%v, want <= analytic %v", side, sweep, f.Alpha)
		}
	}
}

func TestSweepOnRandomRegularIsConstantish(t *testing.T) {
	// Random regular graphs are expanders w.h.p.; the sweep upper bound
	// should not collapse to o(1) values.
	f := gen.RandomRegular(200, 6, 7)
	sweep, _ := expansion.SweepUpperBound(f.Graph)
	if sweep < 0.05 {
		t.Fatalf("random-regular sweep α=%v suspiciously small for an expander", sweep)
	}
}

// verify recomputes α(S) for the given set from first principles and
// reports whether it equals claimed: the check every minimizing set that
// Exact or SweepUpperBound returns must pass.
func verify(g *graph.Graph, set []int, claimed float64) bool {
	if len(set) == 0 || len(set) > g.N()/2 {
		return false
	}
	inSet := make([]bool, g.N())
	for _, u := range set {
		if u < 0 || u >= g.N() || inSet[u] {
			return false
		}
		inSet[u] = true
	}
	return g.AlphaOf(inSet) == claimed
}

// TestVerifyRejectsBadSets keeps the minimizing-set check honest: a check
// that accepted any set would make every test that uses it vacuous.
func TestVerifyRejectsBadSets(t *testing.T) {
	g := gen.Cycle(8).Graph
	if verify(g, nil, 0.5) {
		t.Fatal("verify accepted empty set")
	}
	if verify(g, []int{0, 1, 2, 3, 4}, 0.5) {
		t.Fatal("verify accepted oversized set")
	}
	if verify(g, []int{0, 0}, 0.5) {
		t.Fatal("verify accepted duplicate nodes")
	}
	if verify(g, []int{99}, 0.5) {
		t.Fatal("verify accepted out-of-range node")
	}
	if verify(g, []int{0, 1}, 0.123) {
		t.Fatal("verify accepted wrong claimed value")
	}
	if !verify(g, []int{0, 1}, 1) {
		t.Fatal("verify refused an arc of the cycle at its α")
	}
}

func TestAlphaAlwaysAtMostOne(t *testing.T) {
	// The paper notes α <= 1 always (taking |S| = n/2 gives |∂S| <= |S|).
	rng := xrand.New(99)
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(rng, 8+trial%6, 0.4)
		alpha, _ := expansion.Exact(g)
		if alpha > 1 {
			t.Fatalf("exact α=%v > 1 on %v", alpha, g)
		}
		if math.IsInf(alpha, 0) || math.IsNaN(alpha) {
			t.Fatalf("exact α=%v invalid", alpha)
		}
	}
}

// randomConnected samples G(n, p) until connected.
func randomConnected(rng *xrand.RNG, n int, p float64) *graph.Graph {
	for {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		g := b.MustBuild()
		if g.Connected() {
			return g
		}
	}
}

func BenchmarkExact16(b *testing.B) {
	g := gen.RingOfCliques(4, 4).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expansion.Exact(g)
	}
}

func BenchmarkSweep10000(b *testing.B) {
	g := gen.RingOfCliques(100, 100).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expansion.SweepUpperBound(g)
	}
}

func TestExactCompleteBipartite(t *testing.T) {
	cases := [][2]int{{2, 3}, {3, 3}, {3, 5}, {4, 6}, {2, 8}}
	for _, c := range cases {
		f := gen.CompleteBipartite(c[0], c[1])
		alpha, _ := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("K_{%d,%d}: exact α=%v, analytic %v", c[0], c[1], alpha, f.Alpha)
		}
	}
}

// naiveAlpha is the reference α: it visits every subset S in numeric order
// and recomputes |∂S| from S's neighbor masks, with none of Exact's
// Gray-code bookkeeping.
func naiveAlpha(g *graph.Graph) float64 {
	n := g.N()
	nbr := make([]uint32, n)
	for u := range nbr {
		for _, v := range g.Neighbors(u) {
			nbr[u] |= 1 << uint(v)
		}
	}
	best := math.Inf(1)
	for s := uint32(1); s < 1<<uint(n); s++ {
		size := bits.OnesCount32(s)
		if size > n/2 {
			continue
		}
		var boundary uint32
		for rest := s; rest != 0; rest &= rest - 1 {
			boundary |= nbr[bits.TrailingZeros32(rest)]
		}
		if a := float64(bits.OnesCount32(boundary&^s)) / float64(size); a < best {
			best = a
		}
	}
	return best
}

// checkNaive requires Exact to return naiveAlpha's value and a set that
// attains it.
func checkNaive(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	alpha, set := expansion.Exact(g)
	if want := naiveAlpha(g); alpha != want {
		t.Errorf("%s: exact α=%v, naive enumeration %v", name, alpha, want)
	}
	if !verify(g, set, alpha) {
		t.Errorf("%s: minimizing set %v does not attain %v", name, set, alpha)
	}
}

func TestExactMatchesNaiveOnRandomGraphs(t *testing.T) {
	// G(n, p) samples, connected or not, at densities from sparse to dense.
	rng := xrand.New(31)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(13)
		p := 0.1 + 0.8*rng.Float64()
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		checkNaive(t, "random", b.MustBuild())
	}
}

func TestExactPetersen(t *testing.T) {
	f := gen.Petersen()
	checkNaive(t, f.Name, f.Graph)
	alpha, _ := expansion.Exact(f.Graph)
	if alpha != f.Alpha {
		t.Errorf("petersen: exact α=%v, family %v", alpha, f.Alpha)
	}
}

func TestExactWheel(t *testing.T) {
	for _, n := range []int{4, 5, 6, 9, 12} {
		f := gen.Wheel(n)
		checkNaive(t, f.Name, f.Graph)
		alpha, _ := expansion.Exact(f.Graph)
		if alpha != f.Alpha {
			t.Errorf("wheel(%d): exact α=%v, analytic %v", n, alpha, f.Alpha)
		}
	}
}

func TestExactCirculant(t *testing.T) {
	// C_12(1, 3): node i is adjacent to i±1 and i±3 (mod 12).
	b := graph.NewBuilder(12)
	for u := 0; u < 12; u++ {
		b.AddEdge(u, (u+1)%12)
		b.AddEdge(u, (u+3)%12)
	}
	checkNaive(t, "circulant C_12(1,3)", b.MustBuild())
}

func TestExactExpanderFamilyAlpha(t *testing.T) {
	// gen.Expander takes its α from Exact up to 20 nodes.
	for _, c := range []struct{ n, d int }{{8, 4}, {12, 4}, {16, 6}, {20, 4}} {
		f := gen.Expander(c.n, c.d, 3)
		if !f.AlphaExact {
			t.Fatalf("expander(%d, %d) reports no exact α", c.n, c.d)
		}
		if want := naiveAlpha(f.Graph); f.Alpha != want {
			t.Errorf("expander(%d, %d): family α=%v, naive enumeration %v", c.n, c.d, f.Alpha, want)
		}
	}
}
