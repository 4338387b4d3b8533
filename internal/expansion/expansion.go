// Package expansion computes the vertex expansion α of a graph, the central
// connectivity parameter in all of the paper's time bounds (Section II):
//
//	α = min over non-empty S ⊂ V, |S| ≤ n/2 of α(S) = |∂S| / |S|.
//
// Computing α exactly is NP-hard in general, so the package offers two
// honest tiers, next to graph.AlphaOf for one explicit cut:
//
//   - Exact: the one exhaustive subset enumeration, in Gray-code order with
//     an incrementally maintained boundary, feasible to n ≤ MaxExactN.
//     internal/graph/gen takes the α of its small families without a
//     closed form (Petersen, small wheels, circulants and expanders) from
//     it, and tests check the analytic α formulas of the others against
//     it. The package tests hold it to a naive enumeration that recomputes
//     every subset's boundary from scratch.
//   - SweepUpperBound: the minimum α(S) over BFS-prefix and degree-order
//     sweep cuts from several sources. Always an upper bound on α (it
//     inspects a subfamily of cuts), cheap enough for any n.
//
// Experiments use graph families whose α is known analytically; this package
// exists to certify those formulas and to sanity-check arbitrary inputs.
package expansion

import (
	"math"
	"math/bits"
	"sort"

	"mobiletel/internal/graph"
)

// MaxExactN is the largest graph the exact enumerator accepts. 2^22 subsets
// with O(n/64) bitset work each stays under a second.
const MaxExactN = 22

// Exact returns the exact vertex expansion of g and one minimizing set.
// It panics if g has more than MaxExactN nodes or fewer than 2 nodes.
//
// Subsets are enumerated in Gray-code order, so consecutive sets differ by
// exactly one node and the boundary is maintained incrementally: cov[v]
// counts v's neighbors inside S, and |∂S| = |{v ∉ S : cov[v] > 0}|. Each
// step costs O(deg(u)) for the flipped node u instead of rebuilding the
// boundary bitset from all of S — the same minimum over the same subsets,
// found in a different visiting order (ties may pick a different minSet).
func Exact(g *graph.Graph) (alpha float64, minSet []int) {
	n := g.N()
	if n < 2 {
		panic("expansion: Exact needs n >= 2")
	}
	if n > MaxExactN {
		panic("expansion: graph too large for exact enumeration")
	}

	half := n / 2
	best := math.Inf(1)
	var bestMask, cur uint32
	cov := make([]int32, n) // cov[v] = |N(v) ∩ S|
	inS := make([]bool, n)
	size, boundary := 0, 0

	total := uint32(1) << uint(n)
	for i := uint32(1); i < total; i++ {
		// Gray code: step i flips bit TrailingZeros32(i) of the current set.
		u := bits.TrailingZeros32(i)
		if !inS[u] {
			if cov[u] > 0 {
				boundary-- // u was on the boundary; it joins S
			}
			inS[u] = true
			cur |= 1 << uint(u)
			size++
			for _, v := range g.Neighbors(u) {
				cov[v]++
				if cov[v] == 1 && !inS[v] {
					boundary++
				}
			}
		} else {
			inS[u] = false
			cur &^= 1 << uint(u)
			size--
			for _, v := range g.Neighbors(u) {
				cov[v]--
				if cov[v] == 0 && !inS[v] {
					boundary--
				}
			}
			if cov[u] > 0 {
				boundary++ // u rejoins the boundary
			}
		}
		if size >= 1 && size <= half {
			if a := float64(boundary) / float64(size); a < best {
				best = a
				bestMask = cur
			}
		}
	}
	for u := 0; u < n; u++ {
		if bestMask&(1<<uint(u)) != 0 {
			minSet = append(minSet, u)
		}
	}
	return best, minSet
}

// SweepUpperBound returns an upper bound on α obtained from sweep cuts:
// for each of a handful of BFS roots, it evaluates every BFS-prefix set of
// size ≤ n/2, plus a lowest-degree-first ordering. The returned set attains
// the bound.
func SweepUpperBound(g *graph.Graph) (alpha float64, minSet []int) {
	n := g.N()
	if n < 2 {
		panic("expansion: SweepUpperBound needs n >= 2")
	}
	best := math.Inf(1)
	var bestSet []int

	try := func(order []int) {
		a, prefix := bestPrefixCut(g, order)
		if a < best {
			best = a
			bestSet = prefix
		}
	}

	// BFS sweeps from a few spread-out roots, in both plain sorted-neighbor
	// order and degree-ascending neighbor order. The latter peels low-degree
	// fringes (e.g. star leaves) before advancing to the next hub, which is
	// what finds the optimal cut on families like the line of stars.
	roots := []int{0, n / 2, n - 1}
	seen := map[int]bool{}
	for _, r := range roots {
		if seen[r] {
			continue
		}
		seen[r] = true
		try(g.BFSOrder(r))
		try(bfsOrderByDegree(g, r))
		try(greedyMinDeltaOrder(g, r))
	}

	// Degree-ascending sweep (peels low-degree fringes first).
	byDeg := make([]int, n)
	for i := range byDeg {
		byDeg[i] = i
	}
	sort.Slice(byDeg, func(i, j int) bool {
		if d1, d2 := g.Degree(byDeg[i]), g.Degree(byDeg[j]); d1 != d2 {
			return d1 < d2
		}
		return byDeg[i] < byDeg[j]
	})
	try(byDeg)

	return best, bestSet
}

// greedyMinDeltaOrder grows S from src by repeatedly adding the candidate
// node that minimizes the immediate change to |∂S|. Candidates include nodes
// adjacent to ∂S (not only to S), which allows the order to pre-place
// disconnected chunks whose boundary is already paid for — the structure of
// the optimal cut in families like the line of stars, where the leaves of
// the next star join S before their center does.
//
// A node's delta is non-increasing as S grows, so a lazy min-heap with
// recomputation on pop selects a (near-)minimal candidate each step.
func greedyMinDeltaOrder(g *graph.Graph, src int) []int {
	n := g.N()
	inS := make([]bool, n)
	inBd := make([]bool, n)
	pushed := make([]bool, n)

	delta := func(v int) int {
		d := 0
		if inBd[v] {
			d = -1
		}
		for _, u := range g.Neighbors(v) {
			if !inS[u] && !inBd[u] {
				d++
			}
		}
		return d
	}

	h := &deltaHeap{}
	push := func(v int) {
		if !pushed[v] && !inS[v] {
			pushed[v] = true
			h.push(deltaItem{delta(v), v})
		}
	}

	order := make([]int, 0, n/2+1)
	addToS := func(v int) {
		inS[v] = true
		inBd[v] = false
		order = append(order, v)
		for _, u := range g.Neighbors(v) {
			if !inS[u] && !inBd[u] {
				inBd[u] = true
				// u entered the boundary: u and u's neighbors become
				// candidates (or get cheaper).
				pushed[u] = false
				push(int(u))
				for _, w := range g.Neighbors(int(u)) {
					if !inS[w] {
						pushed[w] = false
						push(int(w))
					}
				}
			}
		}
	}

	addToS(src)
	limit := n/2 + 1
	for len(order) < limit && h.len() > 0 {
		item := h.pop()
		v := item.node
		if inS[v] {
			continue
		}
		// Deltas only decrease; recompute and re-queue if stale-high.
		if d := delta(v); d > item.delta {
			panic("expansion: delta increased") // invariant violation
		} else if h.len() > 0 && d > h.peek().delta {
			h.push(deltaItem{d, v})
			continue
		}
		pushed[v] = false
		addToS(v)
	}
	return order
}

// deltaItem and deltaHeap implement a small binary min-heap keyed by delta.
type deltaItem struct {
	delta int
	node  int
}

type deltaHeap struct{ items []deltaItem }

func (h *deltaHeap) len() int        { return len(h.items) }
func (h *deltaHeap) peek() deltaItem { return h.items[0] }
func (h *deltaHeap) push(x deltaItem) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].delta <= h.items[i].delta {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *deltaHeap) pop() deltaItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.items[l].delta < h.items[smallest].delta {
			smallest = l
		}
		if r < len(h.items) && h.items[r].delta < h.items[smallest].delta {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// bfsOrderByDegree is a BFS from src that enqueues each node's neighbors in
// ascending degree order, so pendant/leaf structure is absorbed into S
// before the frontier advances to the next hub.
func bfsOrderByDegree(g *graph.Graph, src int) []int {
	n := g.N()
	visited := make([]bool, n)
	order := make([]int, 0, n)
	queue := []int{src}
	visited[src] = true
	scratch := make([]int, 0, g.MaxDegree())
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		scratch = scratch[:0]
		for _, v := range g.Neighbors(u) {
			if !visited[v] {
				visited[v] = true
				scratch = append(scratch, int(v))
			}
		}
		sort.Slice(scratch, func(i, j int) bool {
			if d1, d2 := g.Degree(scratch[i]), g.Degree(scratch[j]); d1 != d2 {
				return d1 < d2
			}
			return scratch[i] < scratch[j]
		})
		queue = append(queue, scratch...)
	}
	return order
}

// bestPrefixCut evaluates α(S) for every prefix S of order with |S| ≤ n/2
// and returns the best value and a copy of the winning prefix.
func bestPrefixCut(g *graph.Graph, order []int) (float64, []int) {
	n := g.N()
	half := n / 2
	inSet := make([]bool, n)
	// boundaryCount tracks |∂S| incrementally: degreeInto[v] counts edges
	// from v into S for v ∉ S.
	degreeInto := make([]int, n)
	boundary := 0
	best := math.Inf(1)
	bestLen := 0
	for i, u := range order {
		if i >= half {
			break
		}
		// u joins S. If u was on the boundary, it leaves it.
		if degreeInto[u] > 0 {
			boundary--
		}
		inSet[u] = true
		for _, v := range g.Neighbors(u) {
			if !inSet[v] {
				if degreeInto[v] == 0 {
					boundary++
				}
				degreeInto[v]++
			}
		}
		a := float64(boundary) / float64(i+1)
		if a < best {
			best = a
			bestLen = i + 1
		}
	}
	prefix := make([]int, bestLen)
	copy(prefix, order[:bestLen])
	return best, prefix
}
