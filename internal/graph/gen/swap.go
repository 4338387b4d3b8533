package gen

import (
	"slices"

	"mobiletel/internal/graph"
	"mobiletel/internal/xrand"
)

// Swapper runs the degree-preserving double-edge swap chain over an edge
// list: RandomRegular mixes its circulant base with it, and
// dyngraph.Churn moves a burst of edges every epoch. The chain picks edges
// by index, so the list's order is part of the result.
//
// Whether a swap would duplicate an edge is answered from per-node
// neighbor rows laid out like a CSR, not from a hash set of edges: a swap
// never changes a degree, so every row keeps its size and slot range for
// the Swapper's lifetime.
type Swapper struct {
	edges [][2]int32 // canonical (min, max)
	start []int32    // node u's row is rows[start[u]:start[u+1]]
	rows  []int32    // current neighbors, unordered within a row
}

// NewSwapper returns a swap chain on n nodes over edges, which must be
// canonical (min, max) pairs of a simple graph. The Swapper takes
// ownership of edges.
func NewSwapper(n int, edges [][2]int32) *Swapper {
	s := &Swapper{edges: edges, start: make([]int32, n+1), rows: make([]int32, 2*len(edges))}
	for _, e := range edges {
		s.start[e[0]+1]++
		s.start[e[1]+1]++
	}
	for u := 0; u < n; u++ {
		s.start[u+1] += s.start[u]
	}
	s.fillRows()
	return s
}

// fillRows writes every node's row from the edge list.
func (s *Swapper) fillRows() {
	cursor := slices.Clone(s.start[:len(s.start)-1])
	for _, e := range s.edges {
		s.rows[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		s.rows[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
}

// Edges returns the current edge list. It aliases the Swapper's storage.
func (s *Swapper) Edges() [][2]int32 { return s.edges }

// Restore replaces the current edges with a copy of edges, an earlier
// state of this chain (so every degree matches).
func (s *Swapper) Restore(edges [][2]int32) {
	copy(s.edges, edges)
	s.fillRows()
}

// Try makes one swap attempt: edges i and j, drawn uniformly, become
// (a,e),(c,b) from (a,b),(c,e), with the second edge's orientation drawn
// by a coin, when the result stays simple. It draws two indices and,
// unless they are equal, the coin, and nothing else.
func (s *Swapper) Try(rng *xrand.RNG) {
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
	if a == e || c == b || a == c || b == e || s.adjacent(a, e) || s.adjacent(c, b) {
		return
	}
	s.replace(a, b, e)
	s.replace(b, a, c)
	s.replace(c, e, b)
	s.replace(e, c, a)
	s.edges[i], s.edges[j] = canonEdge(a, e), canonEdge(c, b)
}

// adjacent reports whether {u, v} is a current edge, scanning the shorter
// of the two rows.
func (s *Swapper) adjacent(u, v int32) bool {
	if s.start[u+1]-s.start[u] > s.start[v+1]-s.start[v] {
		u, v = v, u
	}
	return slices.Contains(s.rows[s.start[u]:s.start[u+1]], v)
}

// replace swaps neighbor old for neighbor new in u's row.
func (s *Swapper) replace(u, old, new int32) {
	row := s.rows[s.start[u]:s.start[u+1]]
	row[slices.Index(row, old)] = new
}

// Graph returns the current topology. The rows are its CSR once each is
// sorted; the arrays are fresh, so earlier results stay valid as the chain
// moves on.
func (s *Swapper) Graph() *graph.Graph {
	offsets, adj := slices.Clone(s.start), slices.Clone(s.rows)
	for u := 0; u+1 < len(offsets); u++ {
		slices.Sort(adj[offsets[u]:offsets[u+1]])
	}
	return graph.MustFromCSR(offsets, adj)
}

func canonEdge(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}
