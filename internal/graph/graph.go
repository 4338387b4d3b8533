// Package graph implements the static network-topology substrate of the
// mobile telephone model: simple, undirected graphs in a compact
// compressed-sparse-row (CSR) representation, together with the structural
// quantities the paper's analysis is written in terms of — neighborhoods
// N(u), degrees d(u), maximum degree Δ, boundaries ∂S, and per-set expansion
// α(S).
//
// Graphs are immutable once built; use Builder to assemble edge sets and
// Build to freeze them. Nodes are dense indices 0..n-1 (UIDs live a layer
// above, in the simulator).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph in CSR form.
type Graph struct {
	offsets []int32 // len n+1; neighbors of u are adj[offsets[u]:offsets[u+1]]
	adj     []int32 // concatenated sorted adjacency lists
	n       int
	m       int // number of undirected edges
	maxDeg  int
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// MaxDegree returns Δ, the maximum degree over all nodes.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Degree returns d(u) = |N(u)|.
func (g *Graph) Degree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns N(u) as a sorted slice. The slice aliases the graph's
// internal storage and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether {u, v} is an edge. It runs in O(log d(u)): a
// binary search of u's sorted adjacency list, written out rather than
// through sort.Search because the engine checks every proposal with it.
func (g *Graph) HasEdge(u, v int) bool {
	nbrs := g.Neighbors(u)
	t := int32(v)
	lo, hi := 0, len(nbrs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nbrs[m] < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(nbrs) && nbrs[lo] == t
}

// Edges calls fn for every undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return g.bfsCount(0) == g.n
}

// bfsCount returns the number of nodes reachable from src.
func (g *Graph) bfsCount(src int) int {
	visited := make([]bool, g.n)
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	visited[src] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(int(u)) {
			if !visited[v] {
				visited[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count
}

// BFSOrder returns the nodes in breadth-first order from src, visiting
// neighbors in sorted order. Unreachable nodes are omitted.
func (g *Graph) BFSOrder(src int) []int {
	visited := make([]bool, g.n)
	order := make([]int, 0, g.n)
	queue := []int32{int32(src)}
	visited[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, int(u))
		for _, v := range g.Neighbors(int(u)) {
			if !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	return order
}

// Boundary returns ∂S: the set of nodes outside S adjacent to at least one
// node of S. The inSet slice must have length n; the result is sorted.
func (g *Graph) Boundary(inSet []bool) []int {
	if len(inSet) != g.n {
		panic(fmt.Sprintf("graph: Boundary set length %d != n %d", len(inSet), g.n))
	}
	onBoundary := make([]bool, g.n)
	for u := 0; u < g.n; u++ {
		if !inSet[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if !inSet[v] {
				onBoundary[v] = true
			}
		}
	}
	out := make([]int, 0)
	for v, b := range onBoundary {
		if b {
			out = append(out, v)
		}
	}
	return out
}

// AlphaOf returns α(S) = |∂S| / |S| for a non-empty S given as a membership
// slice of length n. It panics if S is empty.
func (g *Graph) AlphaOf(inSet []bool) float64 {
	size := 0
	for _, b := range inSet {
		if b {
			size++
		}
	}
	if size == 0 {
		panic("graph: AlphaOf on empty set")
	}
	return float64(len(g.Boundary(inSet))) / float64(size)
}

// RelabelScratch holds the reusable working storage of RelabelInto — the
// inverse permutation and the per-node emission cursors. The zero value is
// ready to use; it grows to the largest n seen and is reused afterwards.
type RelabelScratch struct {
	inv    []int32
	cursor []int32
}

// grow sizes the scratch for an n-node relabel without allocating when a
// previous call already reached this size.
func (s *RelabelScratch) grow(n int) {
	if cap(s.inv) < n {
		s.inv = make([]int32, n)
		s.cursor = make([]int32, n)
	}
	s.inv = s.inv[:n]
	s.cursor = s.cursor[:n]
}

// RelabelInto returns the graph obtained by renaming node u to perm[u],
// where perm must be a permutation of 0..n-1. It is built in O(n+m) with no
// sorting: new labels are visited in ascending order and appended to their
// neighbors' lists, so every adjacency list is emitted already sorted. The
// output is identical (Equal) to rebuilding the relabeled edge set through
// a Builder, at a fraction of the cost — this is what lets τ=1 schedules
// serve a fresh topology every round cheaply. The scratch s is the
// caller's: only the result graph's own storage (offsets, adj) is freshly
// allocated, so epoch-driven callers (dyngraph.Permuted at τ=1 rebuilds
// every round) run with O(1) transient garbage. The result shares no
// storage with g or s — the scratch may be reused immediately for the next
// relabel while earlier results stay live.
func (g *Graph) RelabelInto(perm []int, s *RelabelScratch) *Graph {
	if len(perm) != g.n {
		panic(fmt.Sprintf("graph: RelabelInto permutation length %d != n %d", len(perm), g.n))
	}
	s.grow(g.n)
	inv := s.inv
	for i := range inv {
		inv[i] = -1
	}
	for u, p := range perm {
		if p < 0 || p >= g.n || inv[p] != -1 {
			panic(fmt.Sprintf("graph: RelabelInto argument is not a permutation (perm[%d] = %d)", u, p))
		}
		inv[p] = int32(u)
	}
	offsets := make([]int32, g.n+1)
	for a := 0; a < g.n; a++ {
		offsets[a+1] = offsets[a] + int32(g.Degree(int(inv[a])))
	}
	adj := make([]int32, len(g.adj))
	cursor := s.cursor
	copy(cursor, offsets[:g.n])
	for a := 0; a < g.n; a++ {
		for _, v := range g.Neighbors(int(inv[a])) {
			b := perm[v]
			adj[cursor[b]] = int32(a)
			cursor[b]++
		}
	}
	return &Graph{offsets: offsets, adj: adj, n: g.n, m: g.m, maxDeg: g.maxDeg}
}

// BalancedChunks partitions the node range [0, n) into workers contiguous
// chunks of approximately equal round work, writing the boundaries into
// chunks (which must have length workers+1): chunk k is
// [chunks[k], chunks[k+1]). Node u is weighted deg(u)+1 — one unit for the
// per-node phase work plus one per incident edge for the scan — so the
// cumulative weight of nodes before u is exactly offsets[u]+u, and each
// boundary is one O(log n) search. Hub-skewed topologies (a line-of-stars
// center with degree n−1) thus cost their worker only their fair share of
// edges, where equal index ranges would serialize the whole round behind
// the hub's chunk.
//
// Boundaries are a deterministic function of (g, workers) alone; they
// affect only which worker executes a node, never the result, because
// per-node RNG streams are independent of the executing worker.
//
//mtmlint:hotpath
func (g *Graph) BalancedChunks(workers int, chunks []int) {
	if workers < 1 || len(chunks) != workers+1 {
		panic(fmt.Sprintf("graph: BalancedChunks needs workers >= 1 and len(chunks) == workers+1, got %d and %d", workers, len(chunks)))
	}
	total := int64(2*g.m + g.n)
	chunks[0] = 0
	for k := 1; k < workers; k++ {
		target := total * int64(k) / int64(workers)
		chunks[k] = sort.Search(g.n, func(u int) bool {
			return int64(g.offsets[u])+int64(u) >= target
		})
	}
	chunks[workers] = g.n
}

// Equal reports whether two graphs have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for i := range g.offsets {
		if g.offsets[i] != h.offsets[i] {
			return false
		}
	}
	for i := range g.adj {
		if g.adj[i] != h.adj[i] {
			return false
		}
	}
	return true
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.n, g.m, g.maxDeg)
}

// Builder assembles an undirected simple graph incrementally. Duplicate edge
// insertions and self-loops are rejected at Build time.
type Builder struct {
	n     int
	edges []uint64 // packed (min, max) keys, see edgeKey
}

// edgeKey packs the edge {u, v}, u < v, into one key whose integer order is
// the (u, v) lexicographic order.
func edgeKey(u, v int32) uint64 { return uint64(u)<<32 | uint64(v) }

// edgeEnds unpacks an edgeKey into (min, max).
func edgeEnds(k uint64) (int32, int32) { return int32(k >> 32), int32(uint32(k)) }

// NewBuilder returns a builder for a graph on n nodes, 0..n-1.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}.
func (b *Builder) AddEdge(u, v int) *Builder {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, edgeKey(int32(u), int32(v)))
	return b
}

// N returns the number of nodes the builder was created with.
func (b *Builder) N() int { return b.n }

// Build freezes the accumulated edges into an immutable Graph.
// It returns an error if any edge was inserted twice.
//
// The packed keys are sorted once, by (min, max). Every adjacency list is
// then written already sorted, in two passes over the keys: the first
// appends each edge's smaller end to its larger end's list, so a list's
// smaller neighbors arrive in ascending order, and the second appends each
// edge's larger end to its smaller end's list, after them and in ascending
// order too. The builder keeps its edges, so more may be added and Build
// called again.
func (b *Builder) Build() (*Graph, error) {
	slices.Sort(b.edges)
	for i := 1; i < len(b.edges); i++ {
		if b.edges[i] == b.edges[i-1] {
			u, v := edgeEnds(b.edges[i])
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
	}

	offsets := make([]int32, b.n+1)
	for _, k := range b.edges {
		u, v := edgeEnds(k)
		offsets[u+1]++
		offsets[v+1]++
	}
	maxDeg := 0
	for u := 0; u < b.n; u++ {
		maxDeg = max(maxDeg, int(offsets[u+1]))
		offsets[u+1] += offsets[u]
	}
	adj := make([]int32, 2*len(b.edges))
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, k := range b.edges {
		u, v := edgeEnds(k)
		adj[cursor[v]] = u
		cursor[v]++
	}
	for _, k := range b.edges {
		u, v := edgeEnds(k)
		adj[cursor[u]] = v
		cursor[u]++
	}
	return &Graph{offsets: offsets, adj: adj, n: b.n, m: len(b.edges), maxDeg: maxDeg}, nil
}

// MustBuild is Build but panics on error; intended for tests and generators
// whose edge sets are duplicate-free by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromCSR adopts ready-made CSR arrays as a graph, skipping the Builder's
// O(m log m) edge sort — the scale path for generators that can emit each
// adjacency list already sorted (a 1M-node torus or circulant materializes
// in O(n+m)). The graph takes ownership of both slices; the caller must not
// modify them afterwards.
//
// The arrays are fully validated in O(n + m): offsets must start at 0, be
// non-decreasing, stay within adj, and end at len(adj); every adjacency
// list must be strictly increasing (sorted, duplicate-free), in range, and
// self-loop free; and the adjacency relation must be symmetric. Validation
// is linear in the input, so adopting is still asymptotically free
// compared to building.
func FromCSR(offsets, adj []int32) (*Graph, error) {
	if len(offsets) == 0 || offsets[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR offsets must start with 0 (len %d)", len(offsets))
	}
	n := len(offsets) - 1
	if int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("graph: FromCSR offsets end at %d, adj has %d entries", offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: FromCSR adjacency length %d is odd; an undirected graph stores each edge twice", len(adj))
	}
	maxDeg := 0
	for u := 0; u < n; u++ {
		if offsets[u+1] < offsets[u] {
			return nil, fmt.Errorf("graph: FromCSR offsets decrease at node %d", u)
		}
		if int(offsets[u+1]) > len(adj) {
			return nil, fmt.Errorf("graph: FromCSR offset %d of node %d exceeds the %d adjacency entries", offsets[u+1], u+1, len(adj))
		}
		if d := int(offsets[u+1] - offsets[u]); d > maxDeg {
			maxDeg = d
		}
		prev := int32(-1)
		for _, v := range adj[offsets[u]:offsets[u+1]] {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: FromCSR neighbor %d of node %d out of range [0,%d)", v, u, n)
			}
			if int(v) == u {
				return nil, fmt.Errorf("graph: FromCSR self-loop at node %d", u)
			}
			if v <= prev {
				return nil, fmt.Errorf("graph: FromCSR adjacency of node %d not strictly increasing at neighbor %d", u, v)
			}
			prev = v
		}
	}
	if err := checkSymmetric(offsets, adj); err != nil {
		return nil, err
	}
	return &Graph{offsets: offsets, adj: adj, n: n, m: len(adj) / 2, maxDeg: maxDeg}, nil
}

// checkSymmetric checks that every entry of well-formed CSR arrays (sorted,
// in-range, loop-free lists) has its reverse entry, in O(n+m) with one
// cursor per node. Nodes u are visited in ascending order, and cursor[x]
// advances past x's entries as the nodes they name are visited, so it
// sits at x's first entry not below u. The reverse entry of an edge (u, v)
// with v > u is therefore the one at v's cursor. An entry w < u that still
// sits at a cursor was not consumed when w was visited, so w's list lacks
// the reverse entry. Checking stops at the first failure, which therefore
// names an edge whose reverse entry really is missing. Graphs of at most
// len(stack) nodes, every per-epoch graph of the paper's experiments among
// them, keep the cursors on the stack, so their check allocates nothing.
func checkSymmetric(offsets, adj []int32) error {
	n := len(offsets) - 1
	var stack [1024]int32
	cursor := stack[:0]
	if n > len(stack) {
		cursor = make([]int32, 0, n)
	}
	cursor = append(cursor, offsets[:n]...)
	for u := 0; u < n; u++ {
		c, end := cursor[u], offsets[u+1]
		if c < end && int(adj[c]) < u {
			return missingReverse(u, adj[c])
		}
		for _, v := range adj[c:end] { // all above u
			k := cursor[v]
			if k == offsets[v+1] || int(adj[k]) > u {
				return missingReverse(u, v)
			}
			if int(adj[k]) < u {
				return missingReverse(int(v), adj[k])
			}
			cursor[v] = k + 1
		}
	}
	return nil
}

func missingReverse(u int, v int32) error {
	return fmt.Errorf("graph: FromCSR edge (%d,%d) has no reverse entry", u, v)
}

// MustFromCSR is FromCSR but panics on error; intended for generators whose
// CSR output is well-formed by construction.
func MustFromCSR(offsets, adj []int32) *Graph {
	g, err := FromCSR(offsets, adj)
	if err != nil {
		panic(err)
	}
	return g
}
