package graph

import (
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/rng"
)

// The bucket table reads a weight's bucket off bisected thresholds instead
// of a logarithm. That is exact only while weightBucket is non-decreasing,
// and only if every threshold is the bucket's true lowest float64: these
// tests pin both, over the whole float64 range.

// boundaries returns the lowest float64 of every bucket above the bottom one
// of the positive range, ascending, bisected as bucketTable.build does. How
// many there are depends on math.Log: amd64's assembly Log maps the
// subnormals monotonically onto [Log(0x1p-1023), Log(0x1p-1022)), which
// leaves 6,358 boundaries; an exact Log gives about 6,500.
func boundaries() []float64 {
	lo, hi := math.SmallestNonzeroFloat64, math.MaxFloat64
	var out []float64
	for b := weightBucket(lo) + 1; b <= weightBucket(hi); b++ {
		out = append(out, threshold(b, lo, hi))
	}
	return out
}

// ulps returns x moved k ulps along the positive floats (k may be negative).
func ulps(x float64, k int) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(x)) + int64(k)))
}

// TestWeightBucketMonotoneAroundBoundaries: within ±span ulps of every
// bisected boundary weightBucket never decreases, and each boundary is where
// its bucket starts (span 16 under -short, 20 000 otherwise).
func TestWeightBucketMonotoneAroundBoundaries(t *testing.T) {
	span := 20000
	if testing.Short() {
		span = 16
	}
	bs := boundaries()
	if len(bs) < 6000 {
		t.Fatalf("%d bucket boundaries across the float64 range, want over 6000", len(bs))
	}
	top := math.Float64bits(math.MaxFloat64)
	for _, x := range bs {
		b := weightBucket(x)
		if weightBucket(ulps(x, -1)) >= b {
			t.Fatalf("boundary %v (bucket %d) is not the lowest float64 of its bucket", x, b)
		}
		from := max(1, int64(math.Float64bits(x))-int64(span))
		to := min(top, math.Float64bits(x)+uint64(span))
		prev := weightBucket(math.Float64frombits(uint64(from)))
		for bits := uint64(from) + 1; bits <= to; bits++ {
			cur := weightBucket(math.Float64frombits(bits))
			if cur < prev {
				t.Fatalf("weightBucket decreases at %v: %d after %d", math.Float64frombits(bits), cur, prev)
			}
			prev = cur
		}
	}
}

// wantRank is bucketTable.rank's definition: descending weightBucket over the
// finite positive weights, +Inf above them, non-positive and NaN below.
func wantRank(weights []float64, w float64) int {
	lo, hi := math.Inf(1), 0.0
	for _, v := range weights {
		if v > 0 && v <= math.MaxFloat64 {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	top, span := 0, 0
	if hi > 0 {
		top, span = weightBucket(hi), weightBucket(hi)-weightBucket(lo)
	}
	switch {
	case math.IsInf(w, 1):
		return 0
	case !(w > 0):
		return span + 2
	}
	return 1 + top - weightBucket(w)
}

// checkTable builds a table over weights and fails unless it ranks every one
// of them as wantRank does.
func checkTable(t *testing.T, what string, weights []float64) {
	t.Helper()
	edges := make([]WeightedEdge, len(weights))
	for i, w := range weights {
		edges[i].Weight = w
	}
	var tab bucketTable
	tab.build(edges)
	for _, w := range weights {
		if got, want := tab.rank(w), wantRank(weights, w); got != want {
			t.Fatalf("%s: rank(%v) = %d, weightBucket says %d (top %d span %d, %d thresholds)",
				what, w, got, want, tab.top, tab.span, len(tab.thr))
		}
		if r := tab.rank(w); r < 0 || r >= tab.ranks() {
			t.Fatalf("%s: rank(%v) = %d outside [0, %d)", what, w, r, tab.ranks())
		}
	}
}

// TestBucketTableMatchesWeightBucket: the table's rank agrees with
// weightBucket within 3 ulps of every boundary of the float64 range, on
// subnormals, MaxFloat64, ±Inf, NaN and signed zeros, and on spreads wider
// than the table reaches.
func TestBucketTableMatchesWeightBucket(t *testing.T) {
	for i, x := range boundaries() {
		// Anchors three buckets either side put x's threshold mid-table.
		weights := []float64{x / (1.25 * 1.25 * 1.25), x * 1.25 * 1.25 * 1.25}
		for k := -3; k <= 3; k++ {
			weights = append(weights, ulps(x, k))
		}
		checkTable(t, fmt.Sprintf("boundary %d (%v)", i, x), weights)
	}

	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), -1, math.MaxFloat64}
	subnormals := []float64{math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 1e-320, 1e-310, 0x1p-1022 * (1 - 0x1p-52)}
	checkTable(t, "subnormals", subnormals)
	checkTable(t, "subnormals and specials", append(append([]float64{}, subnormals...), specials...))
	checkTable(t, "specials and one weight", append([]float64{2.5}, specials...))
	checkTable(t, "specials only", specials[:6])
	checkTable(t, "one bucket", []float64{1, 1.1, 1.2, math.NaN(), math.Inf(1)})

	// Wider than maxThresholds buckets: the lowest weights take weightBucket.
	r := rng.New(5)
	for _, width := range []float64{maxThresholds - 1, maxThresholds, maxThresholds + 1, 200, 1400} {
		weights := append([]float64{}, specials...)
		for range 2000 {
			weights = append(weights, math.Pow(1.25, width*(r.Float64()-0.5)))
		}
		checkTable(t, fmt.Sprintf("spread of %v buckets", width), weights)
	}
	checkTable(t, "whole range", []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-200, 1e-5, 0.5, 1, 5, 1e100, math.MaxFloat64})
}

// TestCandidateWordHoldsEveryEdge: the widest weight spread's last rank fits
// the word's rank field, an edge between the two highest vertices of the
// largest list round-trips through it, and a vertex count past MaxVertices
// is refused.
func TestCandidateWordHoldsEveryEdge(t *testing.T) {
	var tab bucketTable
	tab.build([]WeightedEdge{{Weight: math.SmallestNonzeroFloat64}, {Weight: math.MaxFloat64}})
	last := tab.ranks() - 1
	if last>>(64-rankShift) != 0 {
		t.Fatalf("rank %d does not fit %d bits", last, 64-rankShift)
	}
	n := MaxVertices
	w := pack(WeightedEdge{U: n - 1, V: n - 2}, n, last)
	if u, v, r := int(w>>vertexBits&vertexMask), int(w&vertexMask), int(w>>rankShift); u != n-1 || v != n-2 || r != last {
		t.Fatalf("word %#x unpacks to (%d, %d) rank %d, want (%d, %d) rank %d", w, u, v, r, n-1, n-2, last)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a list over MaxVertices+1 vertices was packed")
		}
	}()
	new(Candidates).Load(n+1, nil, true)
}
