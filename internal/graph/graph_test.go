package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"sapspsgd/internal/rng"
)

// pairGraph is NewFromEdges over unweighted pairs.
func pairGraph(n int, pairs ...[2]int) *Graph {
	edges := make([]WeightedEdge, len(pairs))
	for i, p := range pairs {
		edges[i] = WeightedEdge{U: p[0], V: p[1]}
	}
	return NewFromEdges(n, edges)
}

func ring(n int) *Graph {
	var pairs [][2]int
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	if n > 2 {
		pairs = append(pairs, [2]int{n - 1, 0})
	}
	return pairGraph(n, pairs...)
}

func complete(n int) *Graph {
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairGraph(n, pairs...)
}

// hasEdge reports whether (u, v) is an edge of g.
func hasEdge(g *Graph, u, v int) bool { return slices.Contains(g.Neighbors(u), v) }

// bandwidthAware is Algorithm 3's line 5 as the planner composes it: the
// greedy seed, completed to maximum cardinality on the graph of the same
// edges.
func bandwidthAware(n int, edges []WeightedEdge, rnd *rng.Source) Matching {
	return AugmentToMaximum(NewFromEdges(n, edges), GreedyWeightedMatching(n, edges, rnd), rnd)
}

func TestIsConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", pairGraph(0), true},
		{"single", pairGraph(1), true},
		{"twoIsolated", pairGraph(2), false},
		{"ring8", ring(8), true},
		{"path", pairGraph(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), true},
		{"twoTriangles", pairGraph(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{3, 4}, [2]int{4, 5}, [2]int{5, 3}), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.IsConnected(); got != tc.want {
				t.Fatalf("IsConnected = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestComponents(t *testing.T) {
	g := pairGraph(7, [2]int{0, 1}, [2]int{1, 2}, [2]int{3, 4})
	// 5, 6 isolated
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 2 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
}

func TestMaximumMatchingRing(t *testing.T) {
	tests := []struct {
		n, want int
	}{
		{2, 1}, {3, 1}, {4, 2}, {5, 2}, {8, 4}, {9, 4}, {32, 16},
	}
	for _, tc := range tests {
		g := ring(tc.n)
		m := AugmentToMaximum(g, nil, nil)
		if !m.Valid(tc.n) {
			t.Fatalf("n=%d: invalid matching %v", tc.n, m)
		}
		if m.Size() != tc.want {
			t.Fatalf("n=%d: matching size %d, want %d", tc.n, m.Size(), tc.want)
		}
		for v, p := range m {
			if p != -1 && !hasEdge(g, v, p) {
				t.Fatalf("n=%d: matched non-edge (%d,%d)", tc.n, v, p)
			}
		}
	}
}

func TestMaximumMatchingPetersen(t *testing.T) {
	// The Petersen graph has a perfect matching (5 edges) but is not
	// bipartite — a classic blossom stress case.
	outer := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	inner := [][2]int{{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}}
	spokes := [][2]int{{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}}
	g := pairGraph(10, append(append(outer, inner...), spokes...)...)
	m := AugmentToMaximum(g, nil, nil)
	if !m.Valid(10) || m.Size() != 5 {
		t.Fatalf("Petersen matching size %d, want 5 (%v)", m.Size(), m)
	}
}

func TestMaximumMatchingOddBlossoms(t *testing.T) {
	// Two triangles joined by a bridge: maximum matching is 3.
	g := pairGraph(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 5}, [2]int{5, 3})
	m := AugmentToMaximum(g, nil, nil)
	if m.Size() != 3 {
		t.Fatalf("matching size %d, want 3", m.Size())
	}
}

func TestMaximumMatchingStar(t *testing.T) {
	// A star can only match one pair regardless of leaves.
	g := pairGraph(6, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}, [2]int{0, 4}, [2]int{0, 5})
	m := AugmentToMaximum(g, nil, nil)
	if m.Size() != 1 {
		t.Fatalf("star matching size %d, want 1", m.Size())
	}
}

// Edges returns all undirected edges (u < v).
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.EdgeCount())
	for u, a := range g.adj {
		for _, v := range a {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// bruteForceMaxMatching enumerates all matchings on small graphs.
func bruteForceMaxMatching(g *Graph) int {
	edges := g.Edges()
	best := 0
	var recurse func(i int, used uint32, size int)
	recurse = func(i int, used uint32, size int) {
		if size > best {
			best = size
		}
		for j := i; j < len(edges); j++ {
			u, v := edges[j][0], edges[j][1]
			if used&(1<<u) != 0 || used&(1<<v) != 0 {
				continue
			}
			recurse(j+1, used|1<<u|1<<v, size+1)
		}
	}
	recurse(0, 0, 0)
	return best
}

func TestMaximumMatchingAgainstBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(9) // up to 10 vertices
		var pairs [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bernoulli(0.4) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		g := pairGraph(n, pairs...)
		m := AugmentToMaximum(g, nil, r)
		if !m.Valid(n) {
			return false
		}
		for v, p := range m {
			if p != -1 && !hasEdge(g, v, p) {
				return false
			}
		}
		return m.Size() == bruteForceMaxMatching(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentToMaximumKeepsSeededVerticesMatched(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(12)
		var edges []WeightedEdge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bernoulli(0.5) {
					edges = append(edges, WeightedEdge{U: i, V: j, Weight: r.Float64()})
				}
			}
		}
		g := NewFromEdges(n, edges)
		seeded := GreedyWeightedMatching(n, edges, nil)
		final := AugmentToMaximum(g, seeded, r)
		if !final.Valid(n) {
			return false
		}
		// Every vertex matched by the seed stays matched.
		for v, p := range seeded {
			if p != -1 && final[v] == -1 {
				return false
			}
		}
		// And the final matching is maximum.
		return final.Size() == bruteForceMaxMatching(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyWeightedMatchingPrefersHeavyEdge(t *testing.T) {
	// Triangle with one heavy edge: greedy must take the heavy edge.
	edges := []WeightedEdge{
		{U: 0, V: 1, Weight: 10},
		{U: 1, V: 2, Weight: 1},
		{U: 0, V: 2, Weight: 1},
	}
	m := GreedyWeightedMatching(3, edges, nil)
	if m[0] != 1 || m[1] != 0 || m[2] != -1 {
		t.Fatalf("greedy matching = %v", m)
	}
}

func TestBandwidthAwareMatchingIsMaximumAndHeavy(t *testing.T) {
	// Path 0-1-2-3 with weights 1, 100, 1. Max cardinality is 2 and must use
	// edges (0,1) and (2,3) — the bandwidth-aware matching cannot keep the
	// heavy middle edge AND stay maximum, so cardinality wins.
	edges := []WeightedEdge{
		{U: 0, V: 1, Weight: 1},
		{U: 1, V: 2, Weight: 100},
		{U: 2, V: 3, Weight: 1},
	}
	m := bandwidthAware(4, edges, nil)
	if m.Size() != 2 {
		t.Fatalf("size = %d, want 2", m.Size())
	}
	if m[0] != 1 || m[2] != 3 {
		t.Fatalf("matching = %v, want 0-1, 2-3", m)
	}
}

func TestBandwidthAwareChoosesHeavyWhenFree(t *testing.T) {
	// Complete graph on 4 vertices; edge (0,1) and (2,3) heavy. The
	// bandwidth-aware matching should pick exactly those.
	var edges []WeightedEdge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			w := 1.0
			if (i == 0 && j == 1) || (i == 2 && j == 3) {
				w = 50
			}
			edges = append(edges, WeightedEdge{U: i, V: j, Weight: w})
		}
	}
	m := bandwidthAware(4, edges, nil)
	if m[0] != 1 || m[2] != 3 {
		t.Fatalf("matching = %v, want heavy pairs", m)
	}
}

func TestRandomizedMatchingVariesAcrossSeeds(t *testing.T) {
	// On a complete graph many maximum matchings exist; RandomlyMaxMatch
	// should not always return the same one.
	g := complete(8)
	seen := map[string]bool{}
	for seed := uint64(0); seed < 20; seed++ {
		m := AugmentToMaximum(g, nil, rng.New(seed))
		if m.Size() != 4 {
			t.Fatalf("complete(8) matching size %d", m.Size())
		}
		key := ""
		for _, p := range m {
			key += string(rune('a' + p))
		}
		seen[key] = true
	}
	if len(seen) < 2 {
		t.Fatalf("randomized matching produced only %d distinct matchings", len(seen))
	}
}

func BenchmarkBlossomN32Dense(b *testing.B) {
	g := complete(32)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AugmentToMaximum(g, nil, r)
	}
}

func BenchmarkBlossomN64Sparse(b *testing.B) {
	r := rng.New(2)
	var pairs [][2]int
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			if r.Bernoulli(0.1) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	g := pairGraph(64, pairs...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AugmentToMaximum(g, nil, r)
	}
}
