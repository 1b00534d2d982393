package graph

import (
	"slices"

	"sapspsgd/internal/rng"
)

// Matcher is a reusable workspace for the matching pipeline of Algorithm 3:
// greedy weighted seed, graph build, blossom augmentation. A planner that
// matches every round keeps one and pays no per-round allocation beyond the
// matching it returns; the package-level functions run on a throwaway
// Matcher. Results never depend on what the workspace did before. The zero
// value is ready to use; a Matcher is not safe for concurrent use.
type Matcher struct {
	// Greedy pass, all by edge index: the shuffled order, its stable sort
	// (the scan order), the edges skipped on the first scan, and the counting
	// sort's per-position bucket ranks, distinct buckets (descending) and
	// output cursors.
	perm, scan, skipped    []int32
	ranks, buckets, cursor []int

	solver blossomSolver
}

// shuffle applies rnd's Fisher-Yates permutation to s.
func shuffle[T any](rnd *rng.Source, s []T) {
	rnd.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// resize returns s with length n, reallocating only when it must; the
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// unmatched returns a fresh matching of n free vertices.
func unmatched(n int) Matching {
	m := make(Matching, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

// GreedyWeightedMatching is the package-level GreedyWeightedMatching on
// workspace buffers. The returned matching is freshly allocated.
func (m *Matcher) GreedyWeightedMatching(n int, edges []WeightedEdge, rnd *rng.Source) Matching {
	match := unmatched(n)
	take := func(e WeightedEdge) {
		if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			return
		}
		if match[e.U] == -1 && match[e.V] == -1 {
			match[e.U] = e.V
			match[e.V] = e.U
		}
	}
	const skipProb = 0.1
	skipped := m.skipped[:0]
	for _, i := range m.scanOrder(edges, rnd) {
		if rnd != nil && rnd.Float64() < skipProb {
			skipped = append(skipped, i)
			continue
		}
		take(edges[i])
	}
	for _, i := range skipped {
		take(edges[i])
	}
	m.skipped = skipped
	return match
}

// scanOrder returns the order the greedy pass visits edges in, as indices
// into edges: exact descending weight when rnd is nil, otherwise a shuffle
// followed by a stable sort on descending weight bucket. A stable sort's
// output is unique, so the counting sort below yields the order
// sort.SliceStable would.
func (m *Matcher) scanOrder(edges []WeightedEdge, rnd *rng.Source) []int32 {
	perm := resize(m.perm, len(edges))
	for i := range perm {
		perm[i] = int32(i)
	}
	m.perm = perm
	if rnd == nil {
		slices.SortStableFunc(perm, func(i, j int32) int {
			// Negative exactly when edge i is strictly heavier (NaN included).
			if edges[i].Weight > edges[j].Weight {
				return -1
			}
			if edges[i].Weight < edges[j].Weight {
				return 1
			}
			return 0
		})
		return perm
	}
	shuffle(rnd, perm)

	// One weightBucket per edge; the occupied buckets are few (a 25% band
	// each), so they are kept as a small descending list.
	ranks, buckets := m.ranks[:0], m.buckets[:0]
	for _, i := range perm {
		b := weightBucket(edges[i].Weight)
		ranks = append(ranks, b)
		if at := bucketRank(buckets, b); at == len(buckets) || buckets[at] != b {
			buckets = slices.Insert(buckets, at, b)
		}
	}
	cursor := resize(m.cursor, len(buckets)+1)
	clear(cursor)
	for k, b := range ranks {
		r := bucketRank(buckets, b)
		ranks[k] = r
		cursor[r+1]++
	}
	for r := 1; r < len(cursor); r++ {
		cursor[r] += cursor[r-1]
	}
	scan := resize(m.scan, len(perm))
	for k, i := range perm {
		r := ranks[k]
		scan[cursor[r]] = i
		cursor[r]++
	}
	m.ranks, m.buckets, m.cursor, m.scan = ranks, buckets, cursor, scan
	return scan
}

// bucketRank returns the position bucket b has, or would be inserted at, in
// the descending list buckets.
func bucketRank(buckets []int, b int) int {
	lo, hi := 0, len(buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if buckets[mid] > b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Load makes NewFromEdges(n, edges) the graph the next Augment completes a
// matching on, built in workspace storage (bad edges panic as they do there).
func (m *Matcher) Load(n int, edges []WeightedEdge) { m.solver.loadEdges(n, edges) }

// Augment grows match — a matching of the loaded graph, one entry per vertex
// — in place to maximum cardinality, as AugmentToMaximum does for a copy.
// It consumes the loaded graph: Load again before the next Augment.
func (m *Matcher) Augment(match Matching, rnd *rng.Source) {
	m.solver.augmentToMaximum(match, rnd)
}

// AugmentToMaximum is the package-level AugmentToMaximum on workspace
// buffers. The returned matching is freshly allocated.
func (m *Matcher) AugmentToMaximum(g *Graph, initial Matching, rnd *rng.Source) Matching {
	match := unmatched(g.N)
	copy(match, initial)
	m.solver.loadGraph(g)
	m.Augment(match, rnd)
	return match
}
