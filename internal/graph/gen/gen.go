// Package gen generates the graph families used throughout the paper's
// analysis and this repository's experiments.
//
// Each generator returns a Family: the graph plus analytic metadata — the
// maximum degree Δ and, where a clean closed form exists, the exact vertex
// expansion α (Section II of the paper). Experiments use families with known
// α so that complexity bounds of the form O((1/α)Δ²log²n) can be evaluated
// without solving the NP-hard expansion problem; internal/expansion's exact
// enumeration validates these formulas on small instances and supplies α for
// the small families that have no closed form.
package gen

import (
	"fmt"
	"math"
	"slices"

	"mobiletel/internal/expansion"
	"mobiletel/internal/graph"
	"mobiletel/internal/xrand"
)

// Family is a generated graph together with its analytic structural
// metadata.
type Family struct {
	Name  string
	Graph *graph.Graph

	// Alpha is the vertex expansion. If AlphaExact is true this is the exact
	// value implied by the family's structure; otherwise it is a heuristic
	// estimate (or NaN when no estimate is offered).
	Alpha      float64
	AlphaExact bool
}

// N returns the number of nodes, for convenience.
func (f Family) N() int { return f.Graph.N() }

// MaxDegree returns Δ, for convenience.
func (f Family) MaxDegree() int { return f.Graph.MaxDegree() }

func (f Family) String() string {
	return fmt.Sprintf("%s{n=%d Δ=%d α=%.4g}", f.Name, f.N(), f.MaxDegree(), f.Alpha)
}

// Clique returns the complete graph K_n. Every S has ∂S = V \ S, so
// α = (n - ⌊n/2⌋)/⌊n/2⌋, minimized at the largest allowed |S|.
func Clique(n int) Family {
	if n < 1 {
		panic("gen: Clique needs n >= 1")
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	alpha := 1.0
	if n >= 2 {
		half := n / 2
		alpha = float64(n-half) / float64(half)
	}
	return Family{Name: "clique", Graph: b.MustBuild(), Alpha: alpha, AlphaExact: true}
}

// Path returns the path graph on n nodes. The worst cut is a prefix of
// ⌊n/2⌋ nodes with boundary 1, so α = 1/⌊n/2⌋.
func Path(n int) Family {
	if n < 1 {
		panic("gen: Path needs n >= 1")
	}
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	alpha := 1.0
	if n >= 2 {
		alpha = 1 / float64(n/2)
	}
	return Family{Name: "path", Graph: b.MustBuild(), Alpha: alpha, AlphaExact: true}
}

// Cycle returns the cycle graph on n >= 3 nodes. The worst cut is an arc of
// ⌊n/2⌋ nodes with boundary 2, so α = 2/⌊n/2⌋.
func Cycle(n int) Family {
	if n < 3 {
		panic("gen: Cycle needs n >= 3")
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return Family{Name: "cycle", Graph: b.MustBuild(), Alpha: 2 / float64(n/2), AlphaExact: true}
}

// Star returns the star K_{1,n-1} with node 0 as the center. The worst cut
// is ⌊n/2⌋ leaves with boundary {center}, so α = 1/⌊n/2⌋.
func Star(n int) Family {
	if n < 2 {
		panic("gen: Star needs n >= 2")
	}
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return Family{Name: "star", Graph: b.MustBuild(), Alpha: 1 / float64(n/2), AlphaExact: true}
}

// LineOfStars builds the paper's Section VI lower-bound construction: a line
// of `stars` star centers u_1..u_ℓ, each connected to its own `points` leaf
// nodes. Centers are nodes 0..stars-1 in line order; leaves of center i are
// the block stars + i*points .. stars + (i+1)*points - 1.
//
// With ℓ = points = √n this yields Δ = points + 2 and α = Θ(1/n); blind
// gossip needs Ω(Δ²√n) = Ω(Δ²/√α) rounds on it. The minimum cut takes a
// prefix of whole stars plus some leaves of the next star — any size is
// reachable with boundary exactly 1 (the next center), so α = 1/⌊n/2⌋.
func LineOfStars(stars, points int) Family {
	if stars < 1 || points < 0 {
		panic("gen: LineOfStars needs stars >= 1, points >= 0")
	}
	n := stars * (points + 1)
	b := graph.NewBuilder(n)
	for i := 0; i+1 < stars; i++ {
		b.AddEdge(i, i+1)
	}
	for i := 0; i < stars; i++ {
		base := stars + i*points
		for j := 0; j < points; j++ {
			b.AddEdge(i, base+j)
		}
	}
	alpha := 1.0
	if n >= 2 {
		alpha = 1 / float64(n/2)
	}
	return Family{Name: "line-of-stars", Graph: b.MustBuild(), Alpha: alpha, AlphaExact: true}
}

// SqrtLineOfStars is the canonical instantiation from the paper: √n stars of
// √n points each (so the leader at the head must traverse the whole line).
// side is √n; total size is side*(side+1).
func SqrtLineOfStars(side int) Family {
	f := LineOfStars(side, side)
	f.Name = "sqrt-line-of-stars"
	return f
}

// RingOfCliques joins k cliques of size s in a ring, adjacent cliques linked
// by a single edge between designated port nodes (port 0 of clique c to port
// 1 of clique c+1, so no node carries two inter-clique edges and Δ = s
// exactly: s-1 clique edges plus at most one ring edge).
//
// The minimum cut is a contiguous arc of cliques whose end cliques may be
// partial. An end clique missing δ nodes contributes δ boundary nodes if the
// missing set includes that end's "special" node (the one carrying the cut
// edge), and a full end clique contributes 1 boundary node (the special node
// of the adjacent outside clique). ringOfCliquesAlpha minimizes
// boundary/size over this family, which brute-force enumeration confirms is
// the global minimum for s >= 3 (for s = 2 it is an upper bound).
//
// This family gives tunable α at roughly constant Δ = s, the complement of
// Clique (constant α) in the experiment grid.
func RingOfCliques(k, s int) Family {
	if k < 3 || s < 2 {
		panic("gen: RingOfCliques needs k >= 3 cliques of size s >= 2")
	}
	n := k * s
	b := graph.NewBuilder(n)
	for c := 0; c < k; c++ {
		base := c * s
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
	}
	for c := 0; c < k; c++ {
		next := (c + 1) % k
		b.AddEdge(c*s, next*s+1)
	}
	return Family{
		Name:       "ring-of-cliques",
		Graph:      b.MustBuild(),
		Alpha:      ringOfCliquesAlpha(k, s),
		AlphaExact: s >= 3,
	}
}

// ringOfCliquesAlpha minimizes |∂S|/|S| over arc cuts: j whole-or-partial
// cliques with δl (resp. δr) nodes removed at the left (resp. right) end.
// A full end contributes 1 boundary node; an end missing δ >= 1 nodes
// contributes δ.
func ringOfCliquesAlpha(k, s int) float64 {
	half := k * s / 2
	endBoundary := func(delta int) int {
		if delta == 0 {
			return 1
		}
		return delta
	}
	best := math.Inf(1)
	for j := 1; j < k; j++ {
		for dl := 0; dl < s; dl++ {
			for dr := 0; dr < s; dr++ {
				size := j*s - dl - dr
				if size < 1 || size > half {
					continue
				}
				a := float64(endBoundary(dl)+endBoundary(dr)) / float64(size)
				if a < best {
					best = a
				}
			}
		}
	}
	return best
}

// DisjointUnion places two families side by side with no edges between them
// — a disconnected graph, used for the Section VIII self-stabilization
// scenario (components that run independently before being merged). Nodes
// of a keep their indices; nodes of b are shifted by a.N(). Alpha is 0
// (an isolated component has an empty boundary).
func DisjointUnion(a, b Family) Family {
	n := a.N() + b.N()
	bl := graph.NewBuilder(n)
	a.Graph.Edges(func(u, v int) { bl.AddEdge(u, v) })
	off := a.N()
	b.Graph.Edges(func(u, v int) { bl.AddEdge(off+u, off+v) })
	return Family{
		Name:       fmt.Sprintf("disjoint(%s,%s)", a.Name, b.Name),
		Graph:      bl.MustBuild(),
		Alpha:      0,
		AlphaExact: true,
	}
}

// Barbell joins two cliques of size s by a single edge. The worst cut is one
// clique: boundary is 1 node, so α = 1/s.
func Barbell(s int) Family {
	if s < 2 {
		panic("gen: Barbell needs s >= 2")
	}
	b := graph.NewBuilder(2 * s)
	for off := 0; off <= s; off += s {
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				b.AddEdge(off+u, off+v)
			}
		}
	}
	b.AddEdge(0, s)
	return Family{Name: "barbell", Graph: b.MustBuild(), Alpha: 1 / float64(s), AlphaExact: true}
}

// Grid returns the rows×cols grid graph. α is Θ(1/√n); we report the
// standard estimate min(rows,cols)/⌊n/2⌋·... conservatively as a heuristic
// (AlphaExact=false) since the exact isoperimetric constant depends on the
// aspect ratio.
//
// The graph is emitted directly in CSR form: a node's neighbors in row-major
// id order are up, left, right, down, which is already sorted, so a 1M-node
// mesh materializes in O(n) with two allocations instead of round-tripping a
// 2M-entry edge list through the Builder's sort.
func Grid(rows, cols int) Family {
	if rows < 1 || cols < 1 {
		panic("gen: Grid needs positive dimensions")
	}
	n := rows * cols
	offsets := make([]int32, n+1)
	adj := make([]int32, 2*(rows*(cols-1)+(rows-1)*cols))
	i := int32(0)
	u := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			offsets[u] = i
			if r > 0 {
				adj[i] = int32(u - cols)
				i++
			}
			if c > 0 {
				adj[i] = int32(u - 1)
				i++
			}
			if c+1 < cols {
				adj[i] = int32(u + 1)
				i++
			}
			if r+1 < rows {
				adj[i] = int32(u + cols)
				i++
			}
			u++
		}
	}
	offsets[n] = i
	short := rows
	if cols < short {
		short = cols
	}
	alpha := float64(short) / float64(n/2)
	return Family{Name: "grid", Graph: graph.MustFromCSR(offsets, adj), Alpha: alpha, AlphaExact: false}
}

// Torus returns the rows×cols torus (grid with wraparound), a 4-regular
// graph for rows,cols >= 3. Like Grid it emits CSR directly, each node's
// four neighbor ids written in ascending order.
func Torus(rows, cols int) Family {
	if rows < 3 || cols < 3 {
		panic("gen: Torus needs dimensions >= 3")
	}
	n := rows * cols
	offsets := make([]int32, n+1)
	adj := make([]int32, 4*n)
	for u := 0; u <= n; u++ {
		offsets[u] = int32(4 * u)
	}
	// Row-major ids order a node's neighbors by row first: the vertical
	// pair sits in rows ra < rb, and the same-row pair (columns ca < cb)
	// comes before both on row 0, after both on the last row, and between
	// them elsewhere.
	for r := 0; r < rows; r++ {
		rup, rdn := r-1, r+1
		if rup < 0 {
			rup = rows - 1
		}
		if rdn == rows {
			rdn = 0
		}
		ra, rb := min(rup, rdn), max(rup, rdn)
		for c := 0; c < cols; c++ {
			cl, cr := c-1, c+1
			if cl < 0 {
				cl = cols - 1
			}
			if cr == cols {
				cr = 0
			}
			ca, cb := min(cl, cr), max(cl, cr)
			va, vb := int32(ra*cols+c), int32(rb*cols+c)
			ha, hb := int32(r*cols+ca), int32(r*cols+cb)
			quad := adj[4*(r*cols+c):][:4]
			switch r {
			case 0:
				quad[0], quad[1], quad[2], quad[3] = ha, hb, va, vb
			case rows - 1:
				quad[0], quad[1], quad[2], quad[3] = va, vb, ha, hb
			default:
				quad[0], quad[1], quad[2], quad[3] = va, ha, hb, vb
			}
		}
	}
	short := rows
	if cols < short {
		short = cols
	}
	alpha := 2 * float64(short) / float64(n/2)
	return Family{Name: "torus", Graph: graph.MustFromCSR(offsets, adj), Alpha: alpha, AlphaExact: false}
}

// Expander returns a random circulant d-regular expander on n nodes: offset
// 1 (a Hamiltonian cycle, guaranteeing connectivity) plus d/2 - 1 random
// distinct offsets in [2, (n-1)/2] drawn from the seed. Random circulants
// of logarithmic degree are expanders w.h.p., and unlike RandomRegular the
// construction is O(nd) with no edge-swap mixing chain, so a 1M-node
// instance materializes in milliseconds. d must be even and >= 4, with
// n >= d + 2 so enough distinct offsets exist; every offset o satisfies
// 2o < n, so each contributes exactly two distinct neighbors per node. α is
// expansion.Exact's value for n ≤ 20 and NaN above.
func Expander(n, d int, seed uint64) Family {
	hi := (n - 1) / 2
	if d < 4 || d%2 != 0 || n < d+2 || hi-1 < d/2-1 {
		panic(fmt.Sprintf("gen: Expander(%d, %d) infeasible: need even d >= 4 and n >= d+2", n, d))
	}
	if int64(n)*int64(d) >= math.MaxInt32 {
		panic(fmt.Sprintf("gen: Expander(%d, %d) adjacency exceeds int32 CSR offsets", n, d))
	}
	rng := xrand.New(seed)
	offs := make([]int, 1, d/2)
	offs[0] = 1
	seen := map[int]bool{1: true}
	for len(offs) < d/2 {
		o := 2 + rng.Intn(hi-1)
		if !seen[o] {
			seen[o] = true
			offs = append(offs, o)
		}
	}
	offsets := make([]int32, n+1)
	adj := make([]int32, d*n)
	for u := 0; u <= n; u++ {
		offsets[u] = int32(d * u)
	}
	nb := make([]int32, d)
	for u := 0; u < n; u++ {
		k := 0
		for _, o := range offs {
			nb[k] = int32((u + o) % n)
			nb[k+1] = int32((u - o + n) % n)
			k += 2
		}
		slices.Sort(nb)
		copy(adj[d*u:], nb)
	}
	g := graph.MustFromCSR(offsets, adj)
	alpha := math.NaN()
	exact := false
	if n <= 20 {
		alpha, _ = expansion.Exact(g)
		exact = true
	}
	return Family{Name: "expander", Graph: g, Alpha: alpha, AlphaExact: exact}
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes. Its vertex
// expansion is Θ(1/√d) (Harper's theorem); we report the estimate
// binom(d, d/2)/2^(d-1) for the balanced Hamming-ball cut.
func Hypercube(d int) Family {
	if d < 1 || d > 20 {
		panic("gen: Hypercube needs 1 <= d <= 20")
	}
	n := 1 << d
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << bit)
			if v > u {
				b.AddEdge(u, v)
			}
		}
	}
	// Central binomial coefficient over half the cube.
	binom := 1.0
	for i := 1; i <= d/2; i++ {
		binom = binom * float64(d-i+1) / float64(i)
	}
	alpha := binom / float64(n/2)
	return Family{Name: "hypercube", Graph: b.MustBuild(), Alpha: alpha, AlphaExact: false}
}

// CompleteBinaryTree returns the complete binary tree with the given number
// of levels (level 1 is just the root). The worst cut is one child subtree
// (boundary = the root), so α ≈ 1/((n-1)/2).
func CompleteBinaryTree(levels int) Family {
	if levels < 1 || levels > 25 {
		panic("gen: CompleteBinaryTree needs 1 <= levels <= 25")
	}
	n := (1 << levels) - 1
	b := graph.NewBuilder(n)
	for u := 0; 2*u+1 < n; u++ {
		b.AddEdge(u, 2*u+1)
		if 2*u+2 < n {
			b.AddEdge(u, 2*u+2)
		}
	}
	alpha := 1.0
	if n >= 3 {
		alpha = 1 / float64((n-1)/2)
	}
	return Family{Name: "binary-tree", Graph: b.MustBuild(), Alpha: alpha, AlphaExact: true}
}

// RandomRegular returns a random simple connected d-regular graph on n
// nodes. It starts from a circulant d-regular base and randomizes it with a
// long run of degree-preserving double-edge swaps (the standard Markov-chain
// sampler), which — unlike configuration-model rejection — succeeds for any
// feasible (n, d). n*d must be even and d < n. Random regular graphs are
// expanders w.h.p., so α is estimated as a constant (0.3, a conservative
// stand-in validated by the expansion package's sweep bound in tests).
func RandomRegular(n, d int, seed uint64) Family {
	if d < 1 || d >= n || (n*d)%2 != 0 {
		panic(fmt.Sprintf("gen: RandomRegular(%d, %d) infeasible", n, d))
	}
	rng := xrand.New(seed)
	edges := regularBase(n, d)

	// Double-edge swaps: ~20 accepted swaps per edge mixes well in practice.
	m := len(edges)
	chain := NewSwapper(n, edges)
	for i := 0; i < 20*m; i++ {
		chain.Try(rng)
	}
	g := chain.Graph()
	// Swaps can (rarely) disconnect the graph; keep mixing until connected.
	for attempts := 0; !g.Connected(); attempts++ {
		if attempts > 100 {
			panic(fmt.Sprintf("gen: RandomRegular(%d, %d) could not reach a connected state", n, d))
		}
		for i := 0; i < 2*m; i++ {
			chain.Try(rng)
		}
		g = chain.Graph()
	}
	return Family{Name: "random-regular", Graph: g, Alpha: 0.3, AlphaExact: false}
}

// regularBase returns the edges of RandomRegular's circulant d-regular base
// in the order its swap chain indexes them: offsets 1..⌊d/2⌋, plus the
// antipodal matching when d is odd (feasible because d odd forces n even).
func regularBase(n, d int) [][2]int32 {
	edges := make([][2]int32, 0, n*d/2)
	for off := 1; off <= d/2; off++ {
		for u := 0; u < n; u++ {
			v := (u + off) % n
			if canonLess(u, v, off, n) {
				edges = append(edges, canonEdge(int32(u), int32(v)))
			}
		}
	}
	if d%2 == 1 {
		for u := 0; u < n/2; u++ {
			edges = append(edges, [2]int32{int32(u), int32(u + n/2)})
		}
	}
	return edges
}

// canonLess reports whether the circulant edge (u, u+off mod n) should be
// emitted when scanning from u — exactly once per undirected edge, handling
// the off == n/2 double-cover case.
func canonLess(u, v, off, n int) bool {
	if 2*off == n {
		return u < v
	}
	return true
}

// ErdosRenyi returns a connected G(n, p) sample, retrying (with fresh
// randomness from the same stream) until the sample is connected. It panics
// after 1000 failed attempts — pick p comfortably above the ln(n)/n
// connectivity threshold.
func ErdosRenyi(n int, p float64, seed uint64) Family {
	if n < 1 || p < 0 || p > 1 {
		panic("gen: ErdosRenyi parameters out of range")
	}
	rng := xrand.New(seed)
	for attempt := 0; attempt < 1000; attempt++ {
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
			return Family{Name: "erdos-renyi", Graph: g, Alpha: math.NaN(), AlphaExact: false}
		}
	}
	panic(fmt.Sprintf("gen: ErdosRenyi(%d, %v) never connected; p too small", n, p))
}

// CompleteBipartite returns K_{a,b} with the a-side on nodes 0..a-1.
// For a <= b, the minimum cut is a subset of the larger side of size
// min(b, ⌊n/2⌋) whose boundary is the entire smaller side, so
// α = a / min(b, ⌊(a+b)/2⌋).
func CompleteBipartite(a, b int) Family {
	if a < 1 || b < 1 {
		panic("gen: CompleteBipartite needs positive sides")
	}
	if a > b {
		a, b = b, a
	}
	n := a + b
	bl := graph.NewBuilder(n)
	for u := 0; u < a; u++ {
		for v := a; v < n; v++ {
			bl.AddEdge(u, v)
		}
	}
	den := b
	if n/2 < den {
		den = n / 2
	}
	return Family{
		Name:       "complete-bipartite",
		Graph:      bl.MustBuild(),
		Alpha:      float64(a) / float64(den),
		AlphaExact: true,
	}
}

// Petersen returns the Petersen graph (10 nodes, 3-regular): outer cycle
// 0..4, inner pentagram 5..9. Its α is computed exactly at construction
// time by expansion.Exact (the graph is tiny and fixed).
func Petersen() Family {
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)     // outer cycle
		b.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		b.AddEdge(i, 5+i)         // spokes
	}
	g := b.MustBuild()
	alpha, _ := expansion.Exact(g)
	return Family{Name: "petersen", Graph: g, Alpha: alpha, AlphaExact: true}
}

// Wheel returns the wheel graph: node 0 is the hub, nodes 1..n-1 form a
// cycle, all connected to the hub. For n >= 6 the minimum cut is a rim arc
// of ⌊n/2⌋ nodes with boundary {two rim ends, hub}: α = 3/⌊n/2⌋. Smaller
// wheels take α from expansion.Exact.
func Wheel(n int) Family {
	if n < 4 {
		panic("gen: Wheel needs n >= 4")
	}
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
		next := i + 1
		if next == n {
			next = 1
		}
		if i < next || next == 1 && i == n-1 {
			b.AddEdge(i, next)
		}
	}
	g := b.MustBuild()
	alpha := 3 / float64(n/2)
	if n < 6 {
		alpha, _ = expansion.Exact(g)
	}
	return Family{Name: "wheel", Graph: g, Alpha: alpha, AlphaExact: true}
}

// BarabasiAlbert grows a scale-free graph by preferential attachment: it
// starts from a clique on m0 = m+1 nodes, then attaches each new node to m
// distinct existing nodes chosen proportionally to their current degree.
// The result has pronounced hubs (heavy-tailed degrees) — a realistic shape
// for phone meshes where a few devices sit in dense spots, and a natural
// stress test for blind gossip's Δ² contention cost. α is unknown (NaN).
func BarabasiAlbert(n, m int, seed uint64) Family {
	if m < 1 || n <= m+1 {
		panic(fmt.Sprintf("gen: BarabasiAlbert(%d, %d) needs n > m+1 >= 2", n, m))
	}
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	// Repeated-endpoints list: node u appears deg(u) times, so sampling a
	// uniform element is preferential attachment.
	var endpoints []int32
	m0 := m + 1
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			b.AddEdge(u, v)
			endpoints = append(endpoints, int32(u), int32(v))
		}
	}
	chosen := make(map[int32]bool, m)
	targets := make([]int32, 0, m)
	for u := m0; u < n; u++ {
		for k := range chosen {
			delete(chosen, k)
		}
		targets = targets[:0]
		for len(chosen) < m {
			v := endpoints[rng.Intn(len(endpoints))]
			if !chosen[v] {
				chosen[v] = true
				targets = append(targets, v)
			}
		}
		// targets preserves selection order, keeping the build a pure
		// function of the seed (map iteration order is randomized).
		for _, v := range targets {
			b.AddEdge(u, int(v))
			endpoints = append(endpoints, int32(u), v)
		}
	}
	return Family{Name: "barabasi-albert", Graph: b.MustBuild(), Alpha: math.NaN(), AlphaExact: false}
}
