package graph

import (
	"fmt"
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
	// Greedy pass: the candidate list GreedyWeightedMatching packs its
	// edges into, the shuffled copy of a list's words, their scan order, the
	// words skipped on the first scan, and the counting sort's cursors.
	scratch             Candidates
	perm, scan, skipped []uint64
	cursor              []int

	solver blossomSolver
}

// A candidate word packs one edge for the greedy pass as
//
//	rank<<rankShift | u<<vertexBits | v
//
// its weight-bucket rank in the top 14 bits (bucketTable.ranks is at most
// 6,520 over the whole float64 range) and both endpoints in 25 bits each.
// An edge the pass refuses — a loop, or an endpoint outside 0..n−1 — keeps
// its rank and packs as u = v = 0, which no edge it can take does.
const (
	vertexBits = 25
	vertexMask = 1<<vertexBits - 1
	rankShift  = 2 * vertexBits

	// MaxVertices is the most vertices a graph or a candidate list spans:
	// one candidate word holds both endpoints.
	MaxVertices = 1 << vertexBits
)

// checkVertices refuses a vertex count outside 0..MaxVertices.
func checkVertices(n int) {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("graph: vertex count %d outside 0..%d", n, MaxVertices))
	}
}

// pack returns e's candidate word over n vertices.
func pack(e WeightedEdge, n, rank int) uint64 {
	w := uint64(rank) << rankShift
	if e.U != e.V && e.U >= 0 && e.V >= 0 && e.U < n && e.V < n {
		w |= uint64(e.U)<<vertexBits | uint64(e.V)
	}
	return w
}

// Candidates is an edge list packed for the greedy pass: one word per edge
// (both endpoints and its bucket rank) and where each rank's run ends in the
// scan order. Loading reads every weight; scanning reads only the words. A
// caller whose list holds across rounds — Algorithm 3's B* while the
// environment and the active set do — loads it once and scans it every
// round. The zero value is an empty list over no vertices.
type Candidates struct {
	n     int
	words []uint64 // in edge order, or in scan order when loaded exact
	ends  []int    // ends[r]: one past the last scan slot of rank r
	table bucketTable
}

// Load packs edges over n vertices (at most MaxVertices). Loaded randomized,
// a scan shuffles the words and stable-sorts them by descending weight
// bucket; loaded exact, the words are stored in descending weight order, the
// order a scan without randomization visits them in. A stable sort's output
// is unique, so both orders are the ones sort.SliceStable would give.
func (c *Candidates) Load(n int, edges []WeightedEdge, randomized bool) {
	checkVertices(n)
	c.n = n
	words := resize(c.words, len(edges))
	if !randomized {
		// Sort the edge indices, then overwrite each with its edge's word.
		for i := range words {
			words[i] = uint64(i)
		}
		slices.SortStableFunc(words, func(i, j uint64) int {
			// Negative exactly when edge i is strictly heavier (NaN included).
			if edges[i].Weight > edges[j].Weight {
				return -1
			}
			if edges[i].Weight < edges[j].Weight {
				return 1
			}
			return 0
		})
		for k, i := range words {
			words[k] = pack(edges[i], n, 0)
		}
		c.words, c.ends = words, append(c.ends[:0], len(edges))
		return
	}
	t := &c.table
	t.build(edges)
	ends := resize(c.ends, t.ranks())
	clear(ends)
	for i, e := range edges {
		r := t.rank(e.Weight)
		ends[r]++
		words[i] = pack(e, n, r)
	}
	for r := 1; r < len(ends); r++ {
		ends[r] += ends[r-1]
	}
	c.words, c.ends = words, ends
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
	m.scratch.Load(n, edges, rnd != nil)
	return m.GreedyScan(&m.scratch, rnd, math.MaxInt)
}

// GreedyScan is GreedyWeightedMatching over a loaded candidate list (loaded
// randomized exactly when rnd is non-nil; c is only read), stopped early
// for a caller that is rnd's last reader once the seed leaves at most one
// of its live vertices free: Generator.NextActive, whose stream is reseeded
// every round. Every edge must join two of those live vertices (or be one
// the greedy pass ignores). With at most one left free no edge can be taken
// and no augmenting path exists, so the scan stops there and the draws it
// would still make are never drawn; up to that point, and throughout when
// two or more stay free, the draws and the matching are
// GreedyWeightedMatching's, which is GreedyScan with live at math.MaxInt.
func (m *Matcher) GreedyScan(c *Candidates, rnd *rng.Source, live int) Matching {
	match := unmatched(c.n)
	if live <= 1 {
		return match
	}
	// take matches the edge of word w if both its ends are free and
	// reports whether the scan is over.
	take := func(w uint64) bool {
		u, v := int(w>>vertexBits&vertexMask), int(w&vertexMask)
		if u == v {
			return false
		}
		if match[u] == -1 && match[v] == -1 {
			match[u] = v
			match[v] = u
			live -= 2
		}
		return live <= 1
	}
	const skipProb = 0.1
	skipped := m.skipped[:0]
	done := false
	for _, w := range m.scanOrder(c, rnd) {
		if rnd != nil && rnd.Float64() < skipProb {
			skipped = append(skipped, w)
			continue
		}
		if done = take(w); done {
			break
		}
	}
	for k := 0; k < len(skipped) && !done; k++ {
		done = take(skipped[k])
	}
	m.skipped = skipped
	return match
}

// scanOrder returns the words of c in the order the greedy pass visits them:
// as loaded when rnd is nil, otherwise a shuffle followed by a stable sort
// on descending weight bucket, which the counting sort below yields.
func (m *Matcher) scanOrder(c *Candidates, rnd *rng.Source) []uint64 {
	if rnd == nil {
		return c.words
	}
	perm := resize(m.perm, len(c.words))
	copy(perm, c.words)
	end := append(m.cursor[:0], c.ends...)
	// rnd.Shuffle's Fisher-Yates, inlined: step i fixes position i of the
	// shuffled order, last to first, so each word drops into the back of its
	// rank's run the moment its position is final — the stable sort of the
	// shuffled order without a second pass over it.
	scan := resize(m.scan, len(perm))
	for i := len(perm) - 1; i >= 0; i-- {
		if i > 0 {
			j := rnd.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		w := perm[i]
		r := w >> rankShift
		end[r]--
		scan[end[r]] = w
	}
	m.perm, m.cursor, m.scan = perm, end, scan
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
