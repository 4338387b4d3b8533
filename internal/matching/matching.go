// Package matching implements maximum bipartite matching and the cut
// machinery of Section V of the paper.
//
// For a graph G = (V, E) and S ⊂ V, B(S) is the bipartite graph with
// bipartitions (S, V∖S) and the edges of E crossing the cut. The edge
// independence number ν(B(S)) — the size of a maximum matching on B(S) —
// bounds the number of concurrent connections the mobile telephone model can
// support across the cut, because every node participates in at most one
// connection per round. Lemma V.1 relates this to vertex expansion:
//
//	γ = min over S, |S| ≤ n/2 of ν(B(S))/|S|  satisfies  γ ≥ α/4.
//
// The package provides one Hopcroft–Karp implementation, CutMatcher, which
// evaluates ν(B(S)) for many cuts of one graph, and the exhaustive γ
// enumeration GammaExact built on it. The package tests hold CutMatcher to a
// brute-force matcher and a pairing validator on small graphs.
package matching

import (
	"math/bits"

	"mobiletel/internal/graph"
)

// Nu returns ν(B(S)), the maximum number of concurrent cut connections the
// mobile telephone model supports across the cut S. For a single cut; to
// evaluate many cuts of the same graph, use a CutMatcher.
func Nu(g *graph.Graph, inSet []bool) int {
	return NewCutMatcher(g).Nu(inSet)
}

// CutMatcher computes ν(B(S)) for many cuts S of one fixed graph, reusing
// every working array — the side-index translation tables, the flat CSR cut
// adjacency, and the Hopcroft–Karp matching/distance/queue scratch — across
// calls, so GammaExact's 2^n cuts per graph allocate nothing per cut.
type CutMatcher struct {
	g *graph.Graph
	n int

	rightOf []int32 // node -> index within the right side (valid for V∖S)
	lefts   []int32 // members of S in ascending node order
	adjOff  []int32 // CSR offsets into adjDat, len L+1
	adjDat  []int32 // right-side neighbor indices across the cut

	// Hopcroft–Karp state, sliced to (L, R) per call.
	curL, curR     int
	matchL, matchR []int32
	dist           []int32
	queue          []int32
}

// NewCutMatcher returns a reusable ν(B(S)) evaluator for g.
func NewCutMatcher(g *graph.Graph) *CutMatcher {
	n := g.N()
	return &CutMatcher{
		g:       g,
		n:       n,
		rightOf: make([]int32, n),
		lefts:   make([]int32, 0, n),
		adjOff:  make([]int32, n+1),
		adjDat:  make([]int32, 0, 2*g.M()),
		matchL:  make([]int32, n),
		matchR:  make([]int32, n),
		dist:    make([]int32, n),
		queue:   make([]int32, 0, n),
	}
}

const (
	unmatched = int32(-1)
	hkInf     = int32(1<<31 - 1)
)

// Nu returns ν(B(S)) for the cut S given as a membership slice of length n,
// by Hopcroft–Karp in O(E·√V). B(S) has the members of S, in ascending node
// order, as its left side and the non-members as its right side.
func (c *CutMatcher) Nu(inSet []bool) int {
	if len(inSet) != c.n {
		panic("matching: CutMatcher set length mismatch")
	}
	c.lefts = c.lefts[:0]
	rights := 0
	for u := 0; u < c.n; u++ {
		if inSet[u] {
			c.lefts = append(c.lefts, int32(u))
		} else {
			c.rightOf[u] = int32(rights)
			rights++
		}
	}
	c.curL, c.curR = len(c.lefts), rights

	c.adjDat = c.adjDat[:0]
	c.adjOff[0] = 0
	for i, u := range c.lefts {
		for _, v := range c.g.Neighbors(int(u)) {
			if !inSet[v] {
				c.adjDat = append(c.adjDat, c.rightOf[v])
			}
		}
		c.adjOff[i+1] = int32(len(c.adjDat))
	}

	for l := 0; l < c.curL; l++ {
		c.matchL[l] = unmatched
	}
	for r := 0; r < c.curR; r++ {
		c.matchR[r] = unmatched
	}
	size := 0
	for c.bfs() {
		for l := int32(0); l < int32(c.curL); l++ {
			if c.matchL[l] == unmatched && c.dfs(l) {
				size++
			}
		}
	}
	return size
}

func (c *CutMatcher) bfs() bool {
	c.queue = c.queue[:0]
	for l := 0; l < c.curL; l++ {
		if c.matchL[l] == unmatched {
			c.dist[l] = 0
			c.queue = append(c.queue, int32(l))
		} else {
			c.dist[l] = hkInf
		}
	}
	found := false
	for head := 0; head < len(c.queue); head++ {
		l := c.queue[head]
		for _, r := range c.adjDat[c.adjOff[l]:c.adjOff[l+1]] {
			next := c.matchR[r]
			if next == unmatched {
				found = true
			} else if c.dist[next] == hkInf {
				c.dist[next] = c.dist[l] + 1
				c.queue = append(c.queue, next)
			}
		}
	}
	return found
}

func (c *CutMatcher) dfs(l int32) bool {
	for _, r := range c.adjDat[c.adjOff[l]:c.adjOff[l+1]] {
		next := c.matchR[r]
		if next == unmatched || (c.dist[next] == c.dist[l]+1 && c.dfs(next)) {
			c.matchL[l] = r
			c.matchR[r] = l
			return true
		}
	}
	c.dist[l] = hkInf
	return false
}

// GammaExact computes γ = min over non-empty S, |S| ≤ n/2 of ν(B(S))/|S| by
// exhaustive enumeration. Lemma V.1 asserts γ ≥ α/4. Feasible for n ≤ ~16.
// Cuts are enumerated in Gray-code order so the membership slice updates by
// one flip per step, and one CutMatcher serves every cut.
func GammaExact(g *graph.Graph) float64 {
	n := g.N()
	if n < 2 || n > 20 {
		panic("matching: GammaExact needs 2 <= n <= 20")
	}
	half := n / 2
	best := float64(n) // γ ≤ 1 ≤ n always; a safe upper sentinel
	inSet := make([]bool, n)
	size := 0
	cm := NewCutMatcher(g)
	total := uint32(1) << uint(n)
	for i := uint32(1); i < total; i++ {
		u := bits.TrailingZeros32(i)
		if inSet[u] {
			inSet[u] = false
			size--
		} else {
			inSet[u] = true
			size++
		}
		if size < 1 || size > half {
			continue
		}
		ratio := float64(cm.Nu(inSet)) / float64(size)
		if ratio < best {
			best = ratio
		}
	}
	return best
}
