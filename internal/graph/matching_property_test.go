package graph

import (
	"math"
	"testing"
	"testing/quick"

	"sapspsgd/internal/rng"
)

func TestGreedyMatchingIsMaximal(t *testing.T) {
	// Even with random skips, the greedy seed must be maximal: no edge may
	// remain with both endpoints free (skipped edges are reconsidered).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(20)
		var edges []WeightedEdge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bernoulli(0.4) {
					edges = append(edges, WeightedEdge{U: i, V: j, Weight: r.Float64() * 10})
				}
			}
		}
		m := GreedyWeightedMatching(n, edges, r)
		if !m.Valid(n) {
			return false
		}
		for _, e := range edges {
			if m[e.U] == -1 && m[e.V] == -1 {
				return false // maximality violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyMatchingVariesAcrossSeeds(t *testing.T) {
	// With near-equal weights the randomized greedy must produce different
	// matchings across seeds — the property that keeps the PC-edge union
	// connected (the TThres=2 regression).
	n := 8
	var edges []WeightedEdge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, WeightedEdge{U: i, V: j, Weight: 1 + 0.01*float64(i+j)})
		}
	}
	seen := map[string]bool{}
	for seed := uint64(0); seed < 30; seed++ {
		m := GreedyWeightedMatching(n, edges, rng.New(seed))
		key := ""
		for _, p := range m {
			key += string(rune('a' + p + 1))
		}
		seen[key] = true
	}
	if len(seen) < 3 {
		t.Fatalf("greedy produced only %d distinct matchings over 30 seeds", len(seen))
	}
}

func TestWeightBucket(t *testing.T) {
	// Weights within ~25% share a bucket; weights 2× apart never do.
	if weightBucket(1.0) != weightBucket(1.05) {
		t.Fatal("1.0 and 1.05 should share a bucket")
	}
	if weightBucket(1.0) == weightBucket(2.0) {
		t.Fatal("1.0 and 2.0 must differ")
	}
	if weightBucket(0) != weightBucket(-1) {
		t.Fatal("non-positive weights share the sentinel bucket")
	}
	if weightBucket(0) >= weightBucket(math.SmallestNonzeroFloat64) {
		t.Fatal("sentinel bucket must sort below any positive weight")
	}
	// +Inf and NaN used to take whatever Go's float→int conversion gave
	// Floor(Log(w)): MinInt64 on amd64, below even the sentinel bucket.
	if weightBucket(math.Inf(1)) <= weightBucket(math.MaxFloat64) {
		t.Fatal("+Inf must be the top bucket")
	}
	if weightBucket(math.NaN()) != weightBucket(0) {
		t.Fatal("NaN joins the non-positive sentinel bucket")
	}
}

func TestGreedyDeterministicWithoutRNG(t *testing.T) {
	edges := []WeightedEdge{
		{U: 0, V: 1, Weight: 5},
		{U: 2, V: 3, Weight: 3},
		{U: 1, V: 2, Weight: 4},
	}
	a := GreedyWeightedMatching(4, edges, nil)
	b := GreedyWeightedMatching(4, edges, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nil-rng greedy must be deterministic")
		}
	}
	// Exact weight order: (0,1) then (1,2) blocked, then (2,3).
	if a[0] != 1 || a[2] != 3 {
		t.Fatalf("greedy = %v", a)
	}
}
