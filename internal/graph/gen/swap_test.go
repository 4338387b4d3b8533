package gen

import (
	"slices"
	"testing"

	"mobiletel/internal/graph"
	"mobiletel/internal/xrand"
)

// mapSwapper is the double-edge swap that RandomRegular and dyngraph.Churn
// each carried before Swapper, kept as the reference: membership through a
// map from edge to index.
type mapSwapper struct {
	edges   [][2]int32
	edgeSet map[[2]int32]int
}

func newMapSwapper(edges [][2]int32) *mapSwapper {
	s := &mapSwapper{edges: slices.Clone(edges), edgeSet: make(map[[2]int32]int, len(edges))}
	for i, e := range s.edges {
		s.edgeSet[e] = i
	}
	return s
}

func (s *mapSwapper) try(rng *xrand.RNG) {
	m := len(s.edges)
	i, j := rng.Intn(m), rng.Intn(m)
	if i == j {
		return
	}
	a, b := s.edges[i][0], s.edges[i][1]
	c, e := s.edges[j][0], s.edges[j][1]
	if rng.Bool() {
		c, e = e, c
	}
	if a == e || c == b || a == c || b == e {
		return
	}
	ne1, ne2 := canonEdge(a, e), canonEdge(c, b)
	if _, dup := s.edgeSet[ne1]; dup {
		return
	}
	if _, dup := s.edgeSet[ne2]; dup {
		return
	}
	delete(s.edgeSet, s.edges[i])
	delete(s.edgeSet, s.edges[j])
	s.edges[i], s.edges[j] = ne1, ne2
	s.edgeSet[ne1] = i
	s.edgeSet[ne2] = j
}

func (s *mapSwapper) graph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range s.edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.MustBuild()
}

// regularGrid is the (n, d) grid of the swap tests: even and odd d, d = 1,
// and the nearly complete d = n-2.
var regularGrid = [][2]int{{4, 1}, {6, 3}, {8, 6}, {10, 8}, {12, 5}, {16, 4}, {20, 7}, {30, 28}, {64, 6}, {64, 9}, {256, 8}}

// TestSwapperMatchesMapSwap runs RandomRegular's chain length from its
// circulant base with the Swapper and the map version on one stream each
// of the same seed, and requires the same edge list after every attempt
// and the same graph at the end.
func TestSwapperMatchesMapSwap(t *testing.T) {
	for _, nd := range regularGrid {
		n, d := nd[0], nd[1]
		for seed := uint64(0); seed < 4; seed++ {
			base := regularBase(n, d)
			ref := newMapSwapper(base)
			chain := NewSwapper(n, base)
			r1, r2 := xrand.New(seed), xrand.New(seed)
			for k := 0; k < 20*len(base); k++ {
				chain.Try(r1)
				ref.try(r2)
				if !slices.Equal(chain.Edges(), ref.edges) {
					t.Fatalf("n=%d d=%d seed=%d: edges differ after attempt %d", n, d, seed, k)
				}
			}
			if !chain.Graph().Equal(ref.graph(n)) {
				t.Fatalf("n=%d d=%d seed=%d: graphs differ", n, d, seed)
			}
		}
	}
}

// refRandomRegular is RandomRegular as it was before Swapper: the map swap
// and a Builder per connectivity check. It also returns how many times the
// connectivity check failed.
func refRandomRegular(n, d int, seed uint64) (*graph.Graph, int) {
	rng := xrand.New(seed)
	ref := newMapSwapper(regularBase(n, d))
	m := len(ref.edges)
	for i := 0; i < 20*m; i++ {
		ref.try(rng)
	}
	g, retries := ref.graph(n), 0
	for ; !g.Connected(); retries++ {
		for i := 0; i < 2*m; i++ {
			ref.try(rng)
		}
		g = ref.graph(n)
	}
	return g, retries
}

// TestRandomRegularMatchesReference covers the swap grid without d = 1 (a
// connected 1-regular graph has two nodes), plus the 1000-node base of the
// churn benchmark and d = 2, whose swaps often split the cycle, so the
// connectivity retries run.
func TestRandomRegularMatchesReference(t *testing.T) {
	retried := 0
	for _, nd := range append(regularGrid, [2]int{1000, 6}, [2]int{12, 2}, [2]int{40, 2}) {
		n, d := nd[0], nd[1]
		if d == 1 {
			continue
		}
		for seed := uint64(0); seed < 20; seed++ {
			want, retries := refRandomRegular(n, d, seed)
			if !RandomRegular(n, d, seed).Graph.Equal(want) {
				t.Fatalf("n=%d d=%d seed=%d: RandomRegular differs from the map-swap reference", n, d, seed)
			}
			retried += retries
		}
	}
	if retried == 0 {
		t.Fatal("no seed ran a connectivity retry")
	}
}

// refTorus is Torus as it was before its neighbor quads were written in
// order: each quad sorted with slices.Sort, through the same FromCSR.
func refTorus(rows, cols int) *graph.Graph {
	n := rows * cols
	offsets := make([]int32, n+1)
	adj := make([]int32, 4*n)
	for u := 0; u <= n; u++ {
		offsets[u] = int32(4 * u)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nb := []int32{
				int32((r+rows-1)%rows*cols + c), int32((r+1)%rows*cols + c),
				int32(r*cols + (c+cols-1)%cols), int32(r*cols + (c+1)%cols),
			}
			slices.Sort(nb)
			copy(adj[4*(r*cols+c):], nb)
		}
	}
	return graph.MustFromCSR(offsets, adj)
}

func TestTorusMatchesReference(t *testing.T) {
	sizes := [][2]int{{3, 3}, {3, 4}, {4, 3}, {3, 7}, {5, 5}, {6, 9}, {17, 4}}
	if !testing.Short() {
		sizes = append(sizes, [2]int{1024, 1024})
	}
	for _, rc := range sizes {
		if !Torus(rc[0], rc[1]).Graph.Equal(refTorus(rc[0], rc[1])) {
			t.Fatalf("Torus(%d, %d) differs from the sorted-quad reference", rc[0], rc[1])
		}
	}
}

func BenchmarkTorus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Torus(1024, 1024)
	}
}

func BenchmarkRandomRegular256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RandomRegular(256, 8, uint64(i))
	}
}
