package graph

import (
	"slices"
	"testing"

	"sapspsgd/internal/rng"
)

// randomEdgeList draws a duplicate-free random edge list on n vertices.
func randomEdgeList(n, count int, r *rng.Source) []WeightedEdge {
	seen := map[[2]int]bool{}
	var edges []WeightedEdge
	for len(edges) < count {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, WeightedEdge{U: u, V: v, Weight: 1 + r.Float64()})
	}
	return edges
}

// TestNewFromEdgesAdjacency pins the constructor's contract on random edge
// lists: each vertex lists its neighbors in edge-list order (which downstream
// DFS and matching draws depend on), every edge appears from both ends, and
// connectivity and components agree with a union-find over the same list.
func TestNewFromEdgesAdjacency(t *testing.T) {
	const n = 50
	for seed := uint64(1); seed <= 5; seed++ {
		for _, count := range []int{20, 120} {
			edges := randomEdgeList(n, count, rng.New(seed))
			g := NewFromEdges(n, edges)
			want := make([][]int, n)
			root := make([]int, n)
			for v := range root {
				root[v] = v
			}
			find := func(v int) int {
				for root[v] != v {
					v = root[v]
				}
				return v
			}
			for _, e := range edges {
				want[e.U] = append(want[e.U], e.V)
				want[e.V] = append(want[e.V], e.U)
				root[find(e.U)] = find(e.V)
			}
			for v := 0; v < n; v++ {
				if !slices.Equal(g.Neighbors(v), want[v]) {
					t.Fatalf("seed %d vertex %d: neighbors %v, want %v", seed, v, g.Neighbors(v), want[v])
				}
			}
			if g.EdgeCount() != count {
				t.Fatalf("seed %d: %d edges, want %d", seed, g.EdgeCount(), count)
			}
			sets := map[int]bool{}
			for v := range root {
				sets[find(v)] = true
			}
			comps := g.Components()
			if len(comps) != len(sets) || g.IsConnected() != (len(sets) == 1) {
				t.Fatalf("seed %d, %d edges: %d components, connected=%v; union-find finds %d", seed, count, len(comps), g.IsConnected(), len(sets))
			}
			covered := 0
			for i, comp := range comps {
				if i > 0 && comp[0] <= comps[i-1][0] || slices.Min(comp) != comp[0] {
					t.Fatalf("seed %d: component %d %v out of smallest-vertex order", seed, i, comp)
				}
				for _, v := range comp {
					if find(v) != find(comp[0]) {
						t.Fatalf("seed %d: component %v joins %d and %d, which no edge path connects", seed, comp, comp[0], v)
					}
				}
				covered += len(comp)
			}
			if covered != n {
				t.Fatalf("seed %d: components cover %d of %d vertices", seed, covered, n)
			}
		}
	}
}

// TestNewFromEdgesRejectsBadEdges pins the panic contract shared with
// netsim.NewSparseBandwidth: self-loops and out-of-range endpoints are
// construction bugs, not data.
func TestNewFromEdgesRejectsBadEdges(t *testing.T) {
	for name, edges := range map[string][]WeightedEdge{
		"self-loop":    {{U: 2, V: 2}},
		"out of range": {{U: 0, V: 5}},
		"negative":     {{U: -1, V: 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			NewFromEdges(4, edges)
		}()
	}
}

// TestNewFromEdgesEmpty covers the degenerate shapes the planner hits under
// heavy thresholding: no edges, and n = 0.
func TestNewFromEdgesEmpty(t *testing.T) {
	g := NewFromEdges(3, nil)
	if g.EdgeCount() != 0 || g.IsConnected() {
		t.Fatalf("empty graph: %d edges, connected=%v", g.EdgeCount(), g.IsConnected())
	}
	if comps := g.Components(); len(comps) != 3 {
		t.Fatalf("empty graph has %d components, want 3", len(comps))
	}
	if NewFromEdges(0, nil).N != 0 {
		t.Fatal("n=0 graph")
	}
}
