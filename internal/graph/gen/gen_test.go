package gen

import (
	"math"
	"testing"

	"mobiletel/internal/graph"
)

func TestCliqueStructure(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10} {
		f := Clique(n)
		if f.N() != n {
			t.Fatalf("K_%d: n=%d", n, f.N())
		}
		if f.Graph.M() != n*(n-1)/2 {
			t.Fatalf("K_%d: m=%d", n, f.Graph.M())
		}
		if n >= 2 && f.MaxDegree() != n-1 {
			t.Fatalf("K_%d: Δ=%d", n, f.MaxDegree())
		}
		if !f.Graph.Connected() {
			t.Fatalf("K_%d disconnected", n)
		}
	}
}

func TestPathCycleStarStructure(t *testing.T) {
	p := Path(7)
	if p.Graph.M() != 6 || p.MaxDegree() != 2 {
		t.Fatalf("path(7): %v", p)
	}
	c := Cycle(7)
	if c.Graph.M() != 7 || c.MaxDegree() != 2 {
		t.Fatalf("cycle(7): %v", c)
	}
	s := Star(7)
	if s.Graph.M() != 6 || s.MaxDegree() != 6 || s.Graph.Degree(1) != 1 {
		t.Fatalf("star(7): %v", s)
	}
}

func TestLineOfStarsStructure(t *testing.T) {
	f := LineOfStars(4, 3)
	if f.N() != 16 {
		t.Fatalf("n=%d, want 16", f.N())
	}
	// Interior centers: 2 line neighbors + 3 leaves = 5. End centers: 4.
	if f.MaxDegree() != 5 {
		t.Fatalf("Δ=%d, want 5", f.MaxDegree())
	}
	if f.Graph.Degree(0) != 4 || f.Graph.Degree(1) != 5 {
		t.Fatalf("center degrees: d(0)=%d d(1)=%d", f.Graph.Degree(0), f.Graph.Degree(1))
	}
	// Leaves have degree 1.
	for v := 4; v < 16; v++ {
		if f.Graph.Degree(v) != 1 {
			t.Fatalf("leaf %d degree %d", v, f.Graph.Degree(v))
		}
	}
	if !f.Graph.Connected() {
		t.Fatal("line of stars disconnected")
	}
}

func TestSqrtLineOfStars(t *testing.T) {
	f := SqrtLineOfStars(5)
	if f.N() != 30 {
		t.Fatalf("n=%d, want 30", f.N())
	}
	if f.Name != "sqrt-line-of-stars" {
		t.Fatalf("name %q", f.Name)
	}
}

func TestRingOfCliquesStructure(t *testing.T) {
	f := RingOfCliques(4, 5)
	if f.N() != 20 {
		t.Fatalf("n=%d", f.N())
	}
	// Δ = s exactly: port nodes have s-1 clique edges + 1 ring edge.
	if f.MaxDegree() != 5 {
		t.Fatalf("Δ=%d, want 5", f.MaxDegree())
	}
	if !f.Graph.Connected() {
		t.Fatal("ring of cliques disconnected")
	}
	if !f.AlphaExact {
		t.Fatal("s>=3 should be flagged exact")
	}
	if f2 := RingOfCliques(3, 2); f2.AlphaExact {
		t.Fatal("s=2 should not be flagged exact")
	}
}

func TestBarbellStructure(t *testing.T) {
	f := Barbell(4)
	if f.N() != 8 || f.MaxDegree() != 4 {
		t.Fatalf("barbell(4): %v", f)
	}
	if !f.Graph.HasEdge(0, 4) {
		t.Fatal("barbell bridge missing")
	}
	if !f.Graph.Connected() {
		t.Fatal("barbell disconnected")
	}
}

func TestGridTorusStructure(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 || g.Graph.M() != 3*3+2*4 {
		t.Fatalf("grid(3,4): %v m=%d", g, g.Graph.M())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("grid Δ=%d", g.MaxDegree())
	}
	tor := Torus(3, 4)
	if tor.Graph.M() != 2*12 {
		t.Fatalf("torus(3,4): m=%d, want 24", tor.Graph.M())
	}
	for u := 0; u < tor.N(); u++ {
		if tor.Graph.Degree(u) != 4 {
			t.Fatalf("torus node %d degree %d", u, tor.Graph.Degree(u))
		}
	}
}

func TestHypercubeStructure(t *testing.T) {
	f := Hypercube(4)
	if f.N() != 16 || f.Graph.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d", f.N(), f.Graph.M())
	}
	for u := 0; u < 16; u++ {
		if f.Graph.Degree(u) != 4 {
			t.Fatalf("Q4 node %d degree %d", u, f.Graph.Degree(u))
		}
	}
	if !f.Graph.Connected() {
		t.Fatal("Q4 disconnected")
	}
}

func TestCompleteBinaryTreeStructure(t *testing.T) {
	f := CompleteBinaryTree(4)
	if f.N() != 15 || f.Graph.M() != 14 {
		t.Fatalf("tree(4): n=%d m=%d", f.N(), f.Graph.M())
	}
	if f.MaxDegree() != 3 {
		t.Fatalf("tree Δ=%d", f.MaxDegree())
	}
	if !f.Graph.Connected() {
		t.Fatal("tree disconnected")
	}
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {50, 5}, {64, 6}} {
		f := RandomRegular(tc.n, tc.d, 42)
		if f.N() != tc.n {
			t.Fatalf("rr(%d,%d): n=%d", tc.n, tc.d, f.N())
		}
		for u := 0; u < tc.n; u++ {
			if f.Graph.Degree(u) != tc.d {
				t.Fatalf("rr(%d,%d): node %d degree %d", tc.n, tc.d, u, f.Graph.Degree(u))
			}
		}
		if !f.Graph.Connected() {
			t.Fatalf("rr(%d,%d) disconnected", tc.n, tc.d)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a := RandomRegular(30, 4, 7)
	b := RandomRegular(30, 4, 7)
	if !a.Graph.Equal(b.Graph) {
		t.Fatal("same seed produced different graphs")
	}
	c := RandomRegular(30, 4, 8)
	if a.Graph.Equal(c.Graph) {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestRandomRegularInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd n*d did not panic")
		}
	}()
	RandomRegular(5, 3, 1) // 15 stubs, odd
}

func TestErdosRenyi(t *testing.T) {
	f := ErdosRenyi(40, 0.3, 11)
	if f.N() != 40 || !f.Graph.Connected() {
		t.Fatalf("ER(40, .3): %v", f)
	}
	if !math.IsNaN(f.Alpha) || f.AlphaExact {
		t.Fatal("ER should not claim a known alpha")
	}
	a := ErdosRenyi(25, 0.25, 3)
	b := ErdosRenyi(25, 0.25, 3)
	if !a.Graph.Equal(b.Graph) {
		t.Fatal("ER not deterministic for fixed seed")
	}
}

func TestPanicsOnBadParameters(t *testing.T) {
	cases := []func(){
		func() { Clique(0) },
		func() { Path(0) },
		func() { Cycle(2) },
		func() { Star(1) },
		func() { LineOfStars(0, 3) },
		func() { RingOfCliques(2, 3) },
		func() { Barbell(1) },
		func() { Grid(0, 3) },
		func() { Torus(2, 3) },
		func() { Hypercube(0) },
		func() { CompleteBinaryTree(0) },
		func() { ErdosRenyi(3, 1.5, 1) },
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

func TestFamilyString(t *testing.T) {
	s := Clique(4).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkRandomRegular1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RandomRegular(1000, 6, uint64(i))
	}
}

func BenchmarkLineOfStars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SqrtLineOfStars(100)
	}
}

func TestCompleteBipartiteStructure(t *testing.T) {
	f := CompleteBipartite(3, 5)
	if f.N() != 8 || f.Graph.M() != 15 {
		t.Fatalf("K_{3,5}: n=%d m=%d", f.N(), f.Graph.M())
	}
	if f.MaxDegree() != 5 {
		t.Fatalf("K_{3,5}: Δ=%d", f.MaxDegree())
	}
	// Argument order must not matter.
	g := CompleteBipartite(5, 3)
	if !f.Graph.Equal(g.Graph) || f.Alpha != g.Alpha {
		t.Fatal("K_{a,b} not symmetric in arguments")
	}
}

func TestPetersenStructure(t *testing.T) {
	f := Petersen()
	if f.N() != 10 || f.Graph.M() != 15 {
		t.Fatalf("petersen: n=%d m=%d", f.N(), f.Graph.M())
	}
	for u := 0; u < 10; u++ {
		if f.Graph.Degree(u) != 3 {
			t.Fatalf("petersen node %d degree %d", u, f.Graph.Degree(u))
		}
	}
	if !f.Graph.Connected() || !f.AlphaExact {
		t.Fatal("petersen metadata wrong")
	}
}

func TestWheelStructure(t *testing.T) {
	f := Wheel(8)
	if f.N() != 8 || f.Graph.M() != 14 {
		t.Fatalf("wheel(8): n=%d m=%d", f.N(), f.Graph.M())
	}
	if f.Graph.Degree(0) != 7 {
		t.Fatalf("hub degree %d", f.Graph.Degree(0))
	}
	for u := 1; u < 8; u++ {
		if f.Graph.Degree(u) != 3 {
			t.Fatalf("rim node %d degree %d", u, f.Graph.Degree(u))
		}
	}
}

func TestNewFamilyPanics(t *testing.T) {
	cases := []func(){
		func() { CompleteBipartite(0, 3) },
		func() { Wheel(3) },
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

func TestDisjointUnion(t *testing.T) {
	f := DisjointUnion(Clique(4), Cycle(5))
	if f.N() != 9 || f.Graph.M() != 6+5 {
		t.Fatalf("disjoint union: n=%d m=%d", f.N(), f.Graph.M())
	}
	if f.Graph.Connected() {
		t.Fatal("disjoint union should be disconnected")
	}
	if f.Alpha != 0 {
		t.Fatal("disconnected graph must report alpha 0")
	}
}

func TestBarabasiAlbertStructure(t *testing.T) {
	f := BarabasiAlbert(200, 3, 7)
	if f.N() != 200 {
		t.Fatalf("n=%d", f.N())
	}
	// m0 clique edges + m per subsequent node.
	wantM := 4*3/2 + (200-4)*3
	if f.Graph.M() != wantM {
		t.Fatalf("m=%d, want %d", f.Graph.M(), wantM)
	}
	if !f.Graph.Connected() {
		t.Fatal("BA graph disconnected")
	}
	// Scale-free signature: the max degree should dwarf the minimum (m).
	if f.MaxDegree() < 4*3 {
		t.Fatalf("Δ=%d suspiciously flat for preferential attachment", f.MaxDegree())
	}
	minDeg := f.N()
	for u := 0; u < f.N(); u++ {
		if d := f.Graph.Degree(u); d < minDeg {
			minDeg = d
		}
	}
	if minDeg < 3 {
		t.Fatalf("min degree %d below m", minDeg)
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(50, 2, 3)
	b := BarabasiAlbert(50, 2, 3)
	if !a.Graph.Equal(b.Graph) {
		t.Fatal("BA not deterministic")
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n <= m+1 did not panic")
		}
	}()
	BarabasiAlbert(3, 3, 1)
}

// builderGrid and builderTorus are the pre-CSR reference constructions; the
// direct-CSR generators must produce bit-identical graphs.
func builderGrid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

func builderTorus(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
			b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.MustBuild()
}

func TestGridCSRMatchesBuilder(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {1, 7}, {5, 1}, {2, 2}, {3, 4}, {7, 7}, {16, 9}} {
		got := Grid(dim[0], dim[1]).Graph
		if want := builderGrid(dim[0], dim[1]); !got.Equal(want) {
			t.Errorf("Grid(%d,%d) direct CSR differs from Builder construction", dim[0], dim[1])
		}
	}
}

func TestTorusCSRMatchesBuilder(t *testing.T) {
	for _, dim := range [][2]int{{3, 3}, {3, 5}, {4, 4}, {7, 3}, {8, 16}} {
		got := Torus(dim[0], dim[1]).Graph
		if want := builderTorus(dim[0], dim[1]); !got.Equal(want) {
			t.Errorf("Torus(%d,%d) direct CSR differs from Builder construction", dim[0], dim[1])
		}
	}
}

func TestExpanderStructure(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{8, 4}, {17, 4}, {64, 6}, {101, 8}, {256, 8}} {
		f := Expander(tc.n, tc.d, 42)
		g := f.Graph
		if g.N() != tc.n || g.M() != tc.n*tc.d/2 {
			t.Fatalf("Expander(%d,%d): n=%d m=%d", tc.n, tc.d, g.N(), g.M())
		}
		for u := 0; u < tc.n; u++ {
			if g.Degree(u) != tc.d {
				t.Fatalf("Expander(%d,%d): node %d has degree %d", tc.n, tc.d, u, g.Degree(u))
			}
		}
		if !g.Connected() {
			t.Fatalf("Expander(%d,%d) disconnected", tc.n, tc.d)
		}
		if !g.HasEdge(0, 1) || !g.HasEdge(tc.n-1, 0) {
			t.Fatalf("Expander(%d,%d) missing the offset-1 Hamiltonian cycle", tc.n, tc.d)
		}
	}
}

func TestExpanderDeterministic(t *testing.T) {
	a := Expander(120, 8, 7).Graph
	if !a.Equal(Expander(120, 8, 7).Graph) {
		t.Fatal("same seed produced different expanders")
	}
	if a.Equal(Expander(120, 8, 8).Graph) {
		t.Fatal("different seeds produced identical expanders")
	}
}

func TestExpanderPanics(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {10, 2}, {5, 4}, {6, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Expander(%d,%d) did not panic", tc.n, tc.d)
				}
			}()
			Expander(tc.n, tc.d, 1)
		}()
	}
}
