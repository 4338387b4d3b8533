package graph

import (
	"fmt"
	"strings"
)

// Structural metrics beyond the degree/boundary primitives: eccentricity-
// based distances and degree distribution. Used by cmd/mtmgraph for
// topology inspection; all are exact BFS computations.

// Diameter returns the longest shortest-path distance in the graph, or -1
// if the graph is disconnected (or has fewer than 2 nodes).
func (g *Graph) Diameter() int {
	if g.n < 2 {
		return -1
	}
	diameter := 0
	dist := make([]int32, g.n)
	for src := 0; src < g.n; src++ {
		ecc, reached := g.eccentricity(src, dist)
		if reached != g.n {
			return -1
		}
		if ecc > diameter {
			diameter = ecc
		}
	}
	return diameter
}

// AveragePathLength returns the mean shortest-path distance over all
// ordered node pairs, or -1 if disconnected.
func (g *Graph) AveragePathLength() float64 {
	if g.n < 2 {
		return 0
	}
	total := 0
	dist := make([]int32, g.n)
	for src := 0; src < g.n; src++ {
		_, reached := g.eccentricity(src, dist)
		if reached != g.n {
			return -1
		}
		for _, d := range dist {
			total += int(d)
		}
	}
	return float64(total) / float64(g.n*(g.n-1))
}

// eccentricity runs BFS from src, filling dist (len n) and returning the
// maximum distance and the number of reached nodes.
func (g *Graph) eccentricity(src int, dist []int32) (ecc, reached int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	reached = 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if int(dist[v]) > ecc {
					ecc = int(dist[v])
				}
				reached++
				queue = append(queue, v)
			}
		}
	}
	return ecc, reached
}

// AverageDegree returns 2m/n (0 for the empty graph).
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// DOT renders the graph in Graphviz DOT format (undirected), for visual
// debugging of topologies. Node names are bare indices.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	for u := 0; u < g.n; u++ {
		if g.Degree(u) == 0 {
			fmt.Fprintf(&b, "  %d;\n", u)
		}
	}
	g.Edges(func(u, v int) {
		fmt.Fprintf(&b, "  %d -- %d;\n", u, v)
	})
	b.WriteString("}\n")
	return b.String()
}
