// Package graph provides the graph algorithms behind SAPS-PSGD's adaptive
// peer selection (Algorithm 3 of the paper): connectivity tests, connected
// components, and maximum matching in general graphs via Edmonds' blossom
// algorithm — the paper's stated matching primitive ("we exploit the blossom
// algorithm [33] to solve the problem of maximum match in a general graph").
package graph

import "fmt"

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	N   int
	adj [][]int
}

// NewFromEdges builds the graph in two passes over a duplicate-free edge
// list (unordered pairs must be unique; self-loops, out-of-range endpoints
// and more than MaxVertices vertices panic). It is the only constructor: all adjacency lists share
// one backing array, so the whole graph costs two allocations regardless of
// N. Each vertex's neighbors appear in edge-list order.
func NewFromEdges(n int, edges []WeightedEdge) *Graph {
	adj, _, _ := adjacencyFromEdges(n, edges, nil, nil, nil)
	return &Graph{N: n, adj: adj}
}

// adjacencyFromEdges is NewFromEdges's two passes over reusable storage:
// the adjacency headers, the degree/offset scratch and the backing array all
// lists alias. It returns all three (regrown if they were too small).
func adjacencyFromEdges(n int, edges []WeightedEdge, adj [][]int, deg, backing []int) ([][]int, []int, []int) {
	checkVertices(n)
	deg = resize(deg, n+1)
	clear(deg)
	for _, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			panic(fmt.Sprintf("graph: bad edge (%d,%d) over %d vertices", e.U, e.V, n))
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	backing = resize(backing, 2*len(edges))
	adj = resize(adj, n)
	for v := 0; v < n; v++ {
		adj[v] = backing[deg[v]:deg[v]:deg[v+1]]
	}
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return adj, deg, backing
}

// Neighbors returns the adjacency list of v (shared storage; do not mutate).
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// IsConnected reports whether the graph is connected (vacuously true for
// n <= 1). This is the IfConnected check of Algorithm 3 applied to the
// recently-connected edge set.
func (g *Graph) IsConnected() bool {
	if g.N <= 1 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N
}

// Components returns the connected components as vertex lists, in order of
// smallest contained vertex (FindConnectedSubgraph in Algorithm 3).
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N)
	var comps [][]int
	for s := 0; s < g.N; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		stack := []int{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.adj[v] {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, w)
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
