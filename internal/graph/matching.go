package graph

import (
	"math"

	"sapspsgd/internal/rng"
)

// WeightedEdge is an undirected edge with a weight (bandwidth, in this
// repository's use).
type WeightedEdge struct {
	U, V   int
	Weight float64
}

// GreedyWeightedMatching returns a maximal matching built by scanning edges
// in descending weight order — a 1/2-approximation of the maximum weight
// matching, good enough for bandwidth preference and cheap.
//
// When rnd is nil the scan order is exact descending weight (deterministic).
// With rnd, two randomizations are applied so that *every* candidate edge
// has positive selection probability across rounds — without this, a purely
// deterministic weight order can lock consecutive rounds into alternating
// between two fixed matchings whose union is disconnected, making the second
// eigenvalue of E[WᵀW] exactly 1 and breaking Assumption 3 (the repository's
// spectral tests reproduce this failure mode):
//
//  1. weights are compared by ~25% buckets, with ties in shuffled order, and
//  2. each edge is skipped with small probability on the first pass
//     (reconsidered afterwards, so the seed matching stays maximal).
func GreedyWeightedMatching(n int, edges []WeightedEdge, rnd *rng.Source) Matching {
	return new(Matcher).GreedyWeightedMatching(n, edges, rnd)
}

// weightBucket maps a weight onto a coarse logarithmic scale (~25% bands):
// weights in the same band count as equal for sorting, so their relative
// order is randomized by the pre-shuffle. Non-positive and NaN weights share
// the bottom bucket and +Inf is the top one (Go leaves the conversion of an
// infinite or NaN Floor to int implementation-defined). The function is
// non-decreasing, which is what lets scanOrder bucket by comparison against
// bisected thresholds (bucket_test.go pins it around every boundary).
func weightBucket(w float64) int {
	switch {
	case !(w > 0):
		return math.MinInt32
	case w > math.MaxFloat64:
		return math.MaxInt32
	}
	return int(math.Floor(math.Log(w) / logBand))
}

// logBand is the width of one weight bucket on the log scale.
var logBand = math.Log(1.25)
