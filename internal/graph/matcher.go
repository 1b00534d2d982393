package graph

import (
	"math"
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
	// Greedy pass: the shuffled edge order, its stable sort (the scan
	// order) and the edges skipped on the first scan, all as edge indices;
	// every edge's bucket rank by edge index (fewer than 6,600 buckets span
	// the float64 range), the counting sort's cursors, and the bucket
	// thresholds the ranks are read off.
	perm, scan, skipped []int32
	rank                []uint16
	cursor              []int
	buckets             bucketTable

	solver blossomSolver
}

// shuffle applies rnd's Fisher-Yates permutation to s: the draws and swaps
// of rnd.Shuffle, without a call through a closure per swap.
func shuffle[T any](rnd *rng.Source, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := rnd.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
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
	return m.GreedyLive(n, edges, rnd, math.MaxInt)
}

// GreedyLive is GreedyWeightedMatching for a caller that is rnd's last
// reader once the seed leaves at most one of its live vertices free —
// Generator.NextActive, whose stream is reseeded every round. Every edge
// must join two of those live vertices (or be one the greedy pass ignores).
// With at most one left free no edge can be taken and no augmenting path
// exists, so the scan stops there and the draws it would still make are
// never drawn; up to that point, and throughout when two or more stay
// free, the draws and the matching are GreedyWeightedMatching's.
func (m *Matcher) GreedyLive(n int, edges []WeightedEdge, rnd *rng.Source, live int) Matching {
	match := unmatched(n)
	if live <= 1 {
		return match
	}
	// take matches edge i if both its ends are free and reports whether
	// the scan is over.
	take := func(i int32) bool {
		e := edges[i]
		if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			return false
		}
		if match[e.U] == -1 && match[e.V] == -1 {
			match[e.U] = e.V
			match[e.V] = e.U
			live -= 2
		}
		return live <= 1
	}
	const skipProb = 0.1
	skipped := m.skipped[:0]
	done := false
	for _, i := range m.scanOrder(edges, rnd) {
		if rnd != nil && rnd.Float64() < skipProb {
			skipped = append(skipped, i)
			continue
		}
		if done = take(i); done {
			break
		}
	}
	for k := 0; k < len(skipped) && !done; k++ {
		done = take(skipped[k])
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

	// One counting sort on the bucket rank, read off the threshold table in
	// edge order. end[r] starts one past bucket r's last slot.
	t := &m.buckets
	t.build(edges)
	end := resize(m.cursor, t.ranks())
	clear(end)
	rank := resize(m.rank, len(edges))
	for i := range edges {
		r := t.rank(edges[i].Weight)
		rank[i] = uint16(r)
		end[r]++
	}
	for r := 1; r < len(end); r++ {
		end[r] += end[r-1]
	}
	// rnd.Shuffle's Fisher-Yates, inlined: step i fixes position i of the
	// shuffled order, last to first, so each edge drops into the back of its
	// bucket the moment its position is final — the stable sort of the
	// shuffled order without a second pass over it.
	scan := resize(m.scan, len(perm))
	for i := len(perm) - 1; i >= 0; i-- {
		if i > 0 {
			j := rnd.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		x := perm[i]
		r := rank[x]
		end[r]--
		scan[end[r]] = x
	}
	m.rank, m.cursor, m.scan = rank, end, scan
	return scan
}

// maxThresholds bounds the thresholds a bucketTable bisects: a spread of
// weights wider than that many buckets reads the rest off weightBucket.
const maxThresholds = 32

// bucketTable ranks weights by descending weightBucket without a logarithm
// per weight. Between the smallest and the largest finite positive weight
// of a call it holds each bucket boundary as the smallest float64 that
// weightBucket puts on or above it, found by bisection with weightBucket
// itself; a weight's bucket is then the number of thresholds above it.
// That is exact because weightBucket is non-decreasing.
//
// Rank 0 is +Inf, rank 1+k is bucket top−k, and the last rank holds the
// non-positive and NaN weights — descending weightBucket order.
type bucketTable struct {
	top  int       // bucket of the largest finite positive weight
	span int       // top minus the bucket of the smallest one
	thr  []float64 // thr[k]: the smallest float64 of bucket ≥ top−k, descending
}

// build fits the table to the finite positive weights of edges.
func (t *bucketTable) build(edges []WeightedEdge) {
	lo, hi := math.MaxFloat64, 0.0
	for _, e := range edges {
		// Plain comparisons: min and max would order NaN and ±0 too.
		if w := e.Weight; w > 0 && w <= math.MaxFloat64 {
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
	}
	t.thr = t.thr[:0]
	t.top, t.span = 0, 0
	if hi == 0 {
		return
	}
	t.top = weightBucket(hi)
	t.span = t.top - weightBucket(lo)
	for b := t.top; b > t.top-min(t.span, maxThresholds); b-- {
		hi = threshold(b, lo, hi)
		t.thr = append(t.thr, hi)
	}
}

// threshold returns the smallest float64 in (lo, hi] with weightBucket at
// least b, given weightBucket(lo) < b ≤ weightBucket(hi). Positive floats
// order like their bit patterns, so it bisects those: at most 64 calls.
func threshold(b int, lo, hi float64) float64 {
	l, h := math.Float64bits(lo), math.Float64bits(hi)
	for h-l > 1 {
		mid := l + (h-l)/2
		if weightBucket(math.Float64frombits(mid)) >= b {
			h = mid
		} else {
			l = mid
		}
	}
	return math.Float64frombits(h)
}

// ranks is the number of ranks rank returns.
func (t *bucketTable) ranks() int { return t.span + 3 }

// rank returns w's position in descending bucket order. A finite positive w
// must lie within the weights the table was built from.
func (t *bucketTable) rank(w float64) int {
	switch {
	case !(w > 0):
		return t.span + 2
	case w > math.MaxFloat64:
		return 0
	}
	r := 1
	for _, x := range t.thr {
		if w < x {
			r++
		}
	}
	if r > len(t.thr) && len(t.thr) < t.span {
		// Below the table's reach.
		return 1 + t.top - weightBucket(w)
	}
	return r
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
