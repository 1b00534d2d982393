package graph

import (
	"math"
	"sort"

	"sapspsgd/internal/rng"
)

// This file is the independent oracle for the matching core: the solver and
// the greedy pass exactly as they stood before the Matcher workspace — full
// O(N) resets per search, O(N) sweeps per contraction, sort.SliceStable with
// two math.Log calls per comparison. It is kept verbatim (only renamed, and
// refWeightBucket given weightBucket's explicit NaN/+Inf rule) so
// oracle_test.go can pin that the production code returns element-for-element
// equal matchings and consumes the RNG identically. The gossip lockstep suite
// cannot serve: ReferenceGenerator calls the same graph functions.

type refBlossomSolver struct {
	g       *Graph
	match   []int
	parent  []int
	base    []int
	queue   []int
	used    []bool
	inPath  []bool
	lcaMark []bool
}

func refAugmentToMaximum(g *Graph, initial Matching, rnd *rng.Source) Matching {
	n := g.N
	s := &refBlossomSolver{
		g:       g,
		match:   make([]int, n),
		parent:  make([]int, n),
		base:    make([]int, n),
		used:    make([]bool, n),
		inPath:  make([]bool, n),
		lcaMark: make([]bool, n),
	}
	for i := range s.match {
		s.match[i] = -1
	}
	if initial != nil {
		copy(s.match, initial)
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	adj := g.adj
	if rnd != nil {
		rnd.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		// Copy-and-shuffle adjacency so neighbor exploration order (and hence
		// tie-breaking among equal-cardinality matchings) is randomized.
		adj = make([][]int, n)
		for v := range adj {
			a := make([]int, len(g.adj[v]))
			copy(a, g.adj[v])
			rnd.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			adj[v] = a
		}
	}
	sg := &Graph{N: n, adj: adj}
	s.g = sg

	for _, v := range order {
		if s.match[v] == -1 {
			if end := s.findPath(v); end != -1 {
				s.augment(end)
			}
		}
	}
	return Matching(s.match)
}

// lca finds the lowest common ancestor of a and b in the alternating forest,
// walking via blossom bases.
func (s *refBlossomSolver) lca(a, b int) int {
	for i := range s.lcaMark {
		s.lcaMark[i] = false
	}
	for {
		a = s.base[a]
		s.lcaMark[a] = true
		if s.match[a] == -1 {
			break
		}
		a = s.parent[s.match[a]]
	}
	for {
		b = s.base[b]
		if s.lcaMark[b] {
			return b
		}
		b = s.parent[s.match[b]]
	}
}

// markPath marks all blossom bases on the path from v down to base b and
// rewires parents through child so the contracted blossom stays traversable.
func (s *refBlossomSolver) markPath(v, b, child int) {
	for s.base[v] != b {
		s.inPath[s.base[v]] = true
		s.inPath[s.base[s.match[v]]] = true
		s.parent[v] = child
		child = s.match[v]
		v = s.parent[s.match[v]]
	}
}

// findPath grows a BFS alternating tree from root and returns the free vertex
// terminating an augmenting path, or -1 if none exists.
func (s *refBlossomSolver) findPath(root int) int {
	n := s.g.N
	for i := 0; i < n; i++ {
		s.used[i] = false
		s.parent[i] = -1
		s.base[i] = i
	}
	s.used[root] = true
	s.queue = s.queue[:0]
	s.queue = append(s.queue, root)

	for qi := 0; qi < len(s.queue); qi++ {
		v := s.queue[qi]
		for _, to := range s.g.adj[v] {
			if s.base[v] == s.base[to] || s.match[v] == to {
				continue
			}
			if to == root || (s.match[to] != -1 && s.parent[s.match[to]] != -1) {
				// Odd cycle: contract the blossom rooted at the LCA.
				curBase := s.lca(v, to)
				for i := 0; i < n; i++ {
					s.inPath[i] = false
				}
				s.markPath(v, curBase, to)
				s.markPath(to, curBase, v)
				for i := 0; i < n; i++ {
					if s.inPath[s.base[i]] {
						s.base[i] = curBase
						if !s.used[i] {
							s.used[i] = true
							s.queue = append(s.queue, i)
						}
					}
				}
			} else if s.parent[to] == -1 {
				s.parent[to] = v
				if s.match[to] == -1 {
					return to
				}
				s.used[s.match[to]] = true
				s.queue = append(s.queue, s.match[to])
			}
		}
	}
	return -1
}

// augment flips matched/unmatched edges along the found path ending at v.
func (s *refBlossomSolver) augment(v int) {
	for v != -1 {
		pv := s.parent[v]
		next := s.match[pv]
		s.match[v] = pv
		s.match[pv] = v
		v = next
	}
}

func refGreedyWeightedMatching(n int, edges []WeightedEdge, rnd *rng.Source) Matching {
	sorted := make([]WeightedEdge, len(edges))
	copy(sorted, edges)
	if rnd != nil {
		rnd.Shuffle(len(sorted), func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
		sort.SliceStable(sorted, func(i, j int) bool {
			return refWeightBucket(sorted[i].Weight) > refWeightBucket(sorted[j].Weight)
		})
	} else {
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Weight > sorted[j].Weight })
	}

	m := make(Matching, n)
	for i := range m {
		m[i] = -1
	}
	const skipProb = 0.1
	var skipped []WeightedEdge
	take := func(e WeightedEdge) {
		if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			return
		}
		if m[e.U] == -1 && m[e.V] == -1 {
			m[e.U] = e.V
			m[e.V] = e.U
		}
	}
	for _, e := range sorted {
		if rnd != nil && rnd.Float64() < skipProb {
			skipped = append(skipped, e)
			continue
		}
		take(e)
	}
	for _, e := range skipped {
		take(e)
	}
	return m
}

// refWeightBucket carries one deliberate change from the verbatim original:
// the explicit NaN/+Inf branches weightBucket gained (NaN to the bottom
// bucket, +Inf to the top), where Go's float→int conversion used to decide.
func refWeightBucket(w float64) int {
	if !(w > 0) {
		return math.MinInt32
	}
	if math.IsInf(w, 1) {
		return math.MaxInt32
	}
	return int(math.Floor(math.Log(w) / math.Log(1.25)))
}

func refBandwidthAwareMatching(n int, edges []WeightedEdge, rnd *rng.Source) Matching {
	g := NewFromEdges(n, edges)
	seed := refGreedyWeightedMatching(n, edges, rnd)
	return refAugmentToMaximum(g, seed, rnd)
}
