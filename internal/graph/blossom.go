package graph

import (
	"fmt"
	"slices"

	"sapspsgd/internal/rng"
)

// Matching maps each vertex to its partner, or -1 if unmatched. It always has
// length N of the graph it was computed on.
type Matching []int

// Size returns the number of matched pairs.
func (m Matching) Size() int {
	n := 0
	for v, p := range m {
		if p > v {
			n++
		}
	}
	return n
}

// Valid reports whether m is a consistent matching on a graph with n
// vertices: symmetric and within range.
func (m Matching) Valid(n int) bool {
	if len(m) != n {
		return false
	}
	for v, p := range m {
		if p == -1 {
			continue
		}
		if p < 0 || p >= n || p == v || m[p] != v {
			return false
		}
	}
	return true
}

// blossomSolver implements Edmonds' maximum cardinality matching for general
// graphs. The structure follows the classic contraction-free formulation: a
// BFS forest is grown from each unmatched root; odd cycles (blossoms) are
// contracted implicitly by re-basing vertices.
//
// A search costs the tree it explores, not the graph. used, parent, base and
// inPath are clean between searches (false, -1, identity, false) and only the
// vertices a search touched are restored afterwards; blossom bases live in a
// union-find forest over base (base[x] == x marks a base; find compresses by
// path halving), so a contraction costs the two tree paths it walks plus one
// union per blossom base on them. With F free vertices after the seed the
// worst case is O(F·E) near-constant-time finds plus the LCA walks — Edmonds'
// O(V·E) — but on the planner's sparse graphs each tree is a few dozen
// vertices and a whole round is near-linear in E.
//
// The searches are order-sensitive (the matching returned is one specific
// maximum matching, pinned bit-for-bit by oracle_test.go), which leaves one
// invariant a contraction must keep: the vertices it newly enqueues enter the
// queue in ascending vertex index, as a sweep over all vertices would find
// them. They are exactly the not-yet-enqueued blossom bases on the two paths
// (any vertex re-based by an earlier contraction was enqueued by it), so
// sorting that short list reproduces the sweep.
type blossomSolver struct {
	// The loaded graph. Searches walk a private copy of the adjacency (one
	// flat buffer, not a slice per vertex) because randomization shuffles it.
	n      int
	adj    [][]int // per-vertex windows into adjBuf
	adjBuf []int
	deg    []int // loadEdges scratch

	match []int // the matching being grown, owned by the caller

	parent  []int  // alternating-tree parent, -1 when untouched
	base    []int  // union-find forest over blossom bases
	used    []bool // enqueued by the current search
	inPath  []bool // base is on the blossom being contracted (dedupes marked)
	lcaSeen []int  // epoch stamp of the last lca walk through a base
	epoch   int

	queue  []int // BFS queue; afterwards, every vertex with used set
	odd    []int // vertices given a parent by tree growth
	marked []int // bases on the blossom being contracted
	order  []int // root processing order

	touched int // vertices restored after searches, summed (tests read it)
}

// loadEdges makes the graph NewFromEdges(n, edges) the one to search.
func (s *blossomSolver) loadEdges(n int, edges []WeightedEdge) {
	s.adj, s.deg, s.adjBuf = adjacencyFromEdges(n, edges, s.adj, s.deg, s.adjBuf)
	s.n = n
}

// loadGraph makes a copy of g the graph to search.
func (s *blossomSolver) loadGraph(g *Graph) {
	total := 0
	for _, src := range g.adj {
		total += len(src)
	}
	s.adjBuf = resize(s.adjBuf, total)
	s.adj = resize(s.adj, g.N)
	off := 0
	for v, src := range g.adj {
		s.adj[v] = s.adjBuf[off : off+len(src) : off+len(src)]
		copy(s.adj[v], src)
		off += len(src)
	}
	s.n = g.N
}

// reserve sizes the per-vertex arrays for n vertices. They only ever grow:
// entries past the current graph stay clean, so a smaller graph needs nothing.
func (s *blossomSolver) reserve(n int) {
	if n <= len(s.parent) {
		return
	}
	s.parent = make([]int, n)
	s.base = make([]int, n)
	for i := range s.parent {
		s.parent[i] = -1
		s.base[i] = i
	}
	s.used = make([]bool, n)
	s.inPath = make([]bool, n)
	s.lcaSeen = make([]int, n)
	s.epoch = 0
}

// augmentToMaximum grows match, a matching of the loaded graph, in place to
// maximum cardinality. With rnd, the root order and then every adjacency list
// are shuffled — one Shuffle(n) followed by one Shuffle per vertex in index
// order; that draw sequence is part of the contract. The adjacency lists are
// shuffled where they lie, so a loaded graph serves one call.
func (s *blossomSolver) augmentToMaximum(match Matching, rnd *rng.Source) {
	if len(match) != s.n {
		panic(fmt.Sprintf("graph: matching over %d vertices, loaded graph has %d", len(match), s.n))
	}
	s.reserve(s.n)
	s.match = match
	s.order = resize(s.order, s.n)
	for i := range s.order {
		s.order[i] = i
	}
	if rnd != nil {
		// Neighbor exploration order (and hence tie-breaking among
		// equal-cardinality matchings) is randomized along with the roots.
		shuffle(rnd, s.order)
		for _, a := range s.adj {
			shuffle(rnd, a)
		}
	}
	for _, v := range s.order {
		// A free vertex without neighbours has no augmenting path; skipping
		// it keeps the all-isolated completion pass O(1) per vertex.
		if match[v] == -1 && len(s.adj[v]) > 0 {
			s.search(v)
		}
	}
	s.match = nil
}

// search runs one augmentation attempt from the free vertex root and
// restores the clean-array invariant for everything it touched.
func (s *blossomSolver) search(root int) {
	s.used[root] = true
	s.queue = append(s.queue[:0], root)
	s.odd = s.odd[:0]
	if end := s.findPath(root); end != -1 {
		s.augment(end)
	}
	// Every vertex whose used, base or blossom-rewired parent changed was
	// enqueued; tree growth set parent on the odd list.
	for _, v := range s.queue {
		s.used[v] = false
		s.parent[v] = -1
		s.base[v] = v
	}
	for _, v := range s.odd {
		s.parent[v] = -1
	}
	s.touched += len(s.queue) + len(s.odd)
}

// find returns the blossom base of x.
func (s *blossomSolver) find(x int) int {
	for s.base[x] != x {
		s.base[x] = s.base[s.base[x]]
		x = s.base[x]
	}
	return x
}

// lca finds the lowest common ancestor of a and b in the alternating forest,
// walking via blossom bases.
func (s *blossomSolver) lca(a, b int) int {
	s.epoch++
	for {
		a = s.find(a)
		s.lcaSeen[a] = s.epoch
		if s.match[a] == -1 {
			break
		}
		a = s.parent[s.match[a]]
	}
	for {
		b = s.find(b)
		if s.lcaSeen[b] == s.epoch {
			return b
		}
		b = s.parent[s.match[b]]
	}
}

// mark records base x as part of the blossom being contracted.
func (s *blossomSolver) mark(x int) {
	if !s.inPath[x] {
		s.inPath[x] = true
		s.marked = append(s.marked, x)
	}
}

// markPath marks all blossom bases on the path from v down to base b and
// rewires parents through child so the contracted blossom stays traversable.
func (s *blossomSolver) markPath(v, b, child int) {
	for s.find(v) != b {
		s.mark(s.find(v))
		s.mark(s.find(s.match[v]))
		s.parent[v] = child
		child = s.match[v]
		v = s.parent[s.match[v]]
	}
}

// contract merges the odd cycle closed by edge (v, to) into the blossom
// rooted at their LCA and enqueues its newly outer vertices.
func (s *blossomSolver) contract(v, to int) {
	b := s.lca(v, to)
	s.markPath(v, b, to)
	s.markPath(to, b, v)
	slices.Sort(s.marked) // the ascending-index enqueue invariant
	for _, x := range s.marked {
		s.inPath[x] = false
		s.base[x] = b
		if !s.used[x] {
			s.used[x] = true
			s.queue = append(s.queue, x)
		}
	}
	s.marked = s.marked[:0]
}

// findPath grows a BFS alternating tree from root (already enqueued) and
// returns the free vertex terminating an augmenting path, or -1 if none
// exists.
func (s *blossomSolver) findPath(root int) int {
	for qi := 0; qi < len(s.queue); qi++ {
		v := s.queue[qi]
		bv := s.find(v)
		for _, to := range s.adj[v] {
			if bv == s.find(to) || s.match[v] == to {
				continue
			}
			if to == root || (s.match[to] != -1 && s.parent[s.match[to]] != -1) {
				// Odd cycle: contract the blossom rooted at the LCA.
				s.contract(v, to)
				bv = s.find(v)
			} else if s.parent[to] == -1 {
				s.parent[to] = v
				s.odd = append(s.odd, to)
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
func (s *blossomSolver) augment(v int) {
	for v != -1 {
		pv := s.parent[v]
		next := s.match[pv]
		s.match[v] = pv
		s.match[pv] = v
		v = next
	}
}

// AugmentToMaximum grows an initial matching (nil means empty) to a maximum
// cardinality matching of g with Edmonds' blossom algorithm; vertices matched
// in the initial matching remain matched (augmenting paths only flip
// partners, never expose a vertex). This is how the bandwidth-greedy seed
// matching is completed to a perfect-as-possible matching without
// sacrificing its high-bandwidth pairs. If rnd is non-nil, the vertex
// processing order and the neighbor iteration order are randomized — from an
// empty matching this is the paper's RandomlyMaxMatch ("by randomly starting
// from different node in a graph"). The result is deterministic for a given
// rnd state, a fresh slice; initial is not modified.
func AugmentToMaximum(g *Graph, initial Matching, rnd *rng.Source) Matching {
	return new(Matcher).AugmentToMaximum(g, initial, rnd)
}
