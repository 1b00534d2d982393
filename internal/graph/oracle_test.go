package graph

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sapspsgd/internal/rng"
)

// oracleCase is one graph the production matcher is pinned against the
// reference solver on.
type oracleCase struct {
	name  string
	n     int
	edges []WeightedEdge
}

// addEdge appends (u, v) with a random weight unless it is a loop or already
// present.
func addEdge(edges []WeightedEdge, seen map[[2]int]bool, u, v int, r *rng.Source) []WeightedEdge {
	if u > v {
		u, v = v, u
	}
	if u == v || seen[[2]int{u, v}] {
		return edges
	}
	seen[[2]int{u, v}] = true
	return append(edges, WeightedEdge{U: u, V: v, Weight: 0.5 + float64(4.5*r.Float64())})
}

// sparseCase draws about degree/2 random edges per vertex.
func sparseCase(n, degree int, r *rng.Source) oracleCase {
	seen := map[[2]int]bool{}
	var edges []WeightedEdge
	for u := 0; u < n; u++ {
		for k := 0; k < (degree+1)/2; k++ {
			edges = addEdge(edges, seen, u, r.Intn(n), r)
		}
	}
	return oracleCase{fmt.Sprintf("sparse%d", degree), n, edges}
}

// denseCase keeps every pair with probability 1/2.
func denseCase(n int, r *rng.Source) oracleCase {
	seen := map[[2]int]bool{}
	var edges []WeightedEdge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(0.5) {
				edges = addEdge(edges, seen, u, v, r)
			}
		}
	}
	return oracleCase{"dense", n, edges}
}

// petersenCase tiles n/10 disjoint Petersen graphs (3-regular, perfect
// matchings only through blossoms) and leaves the remainder isolated.
func petersenCase(n int, r *rng.Source) oracleCase {
	seen := map[[2]int]bool{}
	var edges []WeightedEdge
	for o := 0; o+10 <= n; o += 10 {
		for i := 0; i < 5; i++ {
			edges = addEdge(edges, seen, o+i, o+(i+1)%5, r)
			edges = addEdge(edges, seen, o+i, o+5+i, r)
			edges = addEdge(edges, seen, o+5+i, o+5+(i+2)%5, r)
		}
	}
	return oracleCase{"petersen", n, edges}
}

// oddChainCase strings odd cycles of length 3, 5, 7, 3, … together with
// single bridge edges: every search crosses a run of blossoms.
func oddChainCase(n int, r *rng.Source) oracleCase {
	seen := map[[2]int]bool{}
	var edges []WeightedEdge
	for start, k := 0, 0; ; k++ {
		length := 3 + 2*(k%3)
		if start+length > n {
			break
		}
		for i := 0; i < length; i++ {
			edges = addEdge(edges, seen, start+i, start+(i+1)%length, r)
		}
		if start > 0 {
			edges = addEdge(edges, seen, start-1, start+r.Intn(length), r)
		}
		start += length
	}
	return oracleCase{"oddchain", n, edges}
}

// flowerCase grows an odd ear decomposition — an odd cycle plus ears with an
// odd number of edges between existing vertices — which is factor-critical:
// blossoms nest inside blossoms all the way down. Pendant stems hang off it so
// augmenting paths have to run through the nested blossoms.
func flowerCase(n int, r *rng.Source) oracleCase {
	seen := map[[2]int]bool{}
	var edges []WeightedEdge
	core := min(n, 3)
	for i := 0; i < core; i++ {
		edges = addEdge(edges, seen, i, (i+1)%core, r)
	}
	used := core
	for used+2 <= n-n/8 {
		inner := 2 * (1 + r.Intn(2)) // 2 or 4 new vertices: 3 or 5 edges
		if used+inner > n-n/8 {
			inner = 2
		}
		prev := r.Intn(used)
		end := r.Intn(used)
		for i := 0; i < inner; i++ {
			edges = addEdge(edges, seen, prev, used+i, r)
			prev = used + i
		}
		edges = addEdge(edges, seen, prev, end, r)
		used += inner
	}
	for v := used; v < n; v++ {
		edges = addEdge(edges, seen, v, r.Intn(used), r)
	}
	return oracleCase{"flower", n, edges}
}

// oracleCases is the family × size grid. The dense family stops at 512
// (beyond it the reference's O(N) sweeps per contraction take minutes).
func oracleCases(seed uint64, short bool) []oracleCase {
	var cases []oracleCase
	for _, n := range []int{8, 64, 512, 4096} {
		if short && n > 512 {
			break
		}
		r := rng.New(seed).Derive(uint64(n))
		cases = append(cases,
			sparseCase(n, 3, r), sparseCase(n, 8, r),
			petersenCase(n, r), oddChainCase(n, r), flowerCase(n, r))
		if n <= 512 {
			cases = append(cases, denseCase(n, r))
		}
	}
	return cases
}

// sameMatching fails the test unless got equals want element for element.
func sameMatching(t *testing.T, what string, got, want Matching) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d matched to %d, reference says %d", what, v, got[v], want[v])
		}
	}
}

// sameStream fails the test unless the two sources are at the same point of
// the same stream. Sources may both be nil.
func sameStream(t *testing.T, what string, got, want *rng.Source) {
	t.Helper()
	if got == nil && want == nil {
		return
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("%s: RNG diverged from the reference (next draw %#x, want %#x)", what, g, w)
	}
}

// checkClean fails the test if a search left any solver array dirty.
func checkClean(t *testing.T, what string, s *blossomSolver) {
	t.Helper()
	for i := range s.parent {
		if s.parent[i] != -1 || s.base[i] != i || s.used[i] || s.inPath[i] {
			t.Fatalf("%s: solver state of vertex %d left dirty (parent %d base %d used %v inPath %v)",
				what, i, s.parent[i], s.base[i], s.used[i], s.inPath[i])
		}
	}
	if len(s.marked) != 0 {
		t.Fatalf("%s: %d bases left marked", what, len(s.marked))
	}
}

// sources returns two identically seeded sources, or two nils.
func sources(randomized bool, seed uint64) (*rng.Source, *rng.Source) {
	if !randomized {
		return nil, nil
	}
	return rng.New(seed), rng.New(seed)
}

// TestAugmentMatchesReference is the bit-identity gate for the blossom
// rewrite: over every family, size, seed, with and without randomization,
// from an empty matching and from a greedy seed, the production solver — on a
// workspace shared by all cases and on a throwaway one — returns exactly the
// reference's matching and leaves rnd exactly where the reference leaves it.
func TestAugmentMatchesReference(t *testing.T) {
	var shared Matcher
	for seed := uint64(1); seed <= 5; seed++ {
		for _, c := range oracleCases(seed, testing.Short()) {
			g := NewFromEdges(c.n, c.edges)
			for _, randomized := range []bool{false, true} {
				for _, seeded := range []bool{false, true} {
					what := fmt.Sprintf("%s n=%d seed=%d rnd=%v greedy=%v", c.name, c.n, seed, randomized, seeded)
					var initial Matching
					if seeded {
						initial = refGreedyWeightedMatching(c.n, c.edges, rng.New(seed+100))
					}
					before := append(Matching(nil), initial...)

					refRnd, rnd := sources(randomized, seed)
					want := refAugmentToMaximum(g, initial, refRnd)
					got := AugmentToMaximum(g, initial, rnd)
					sameMatching(t, what, got, want)
					sameStream(t, what, rnd, refRnd)
					sameMatching(t, what+" (initial mutated)", initial, before)

					_, rnd = sources(randomized, seed)
					sameMatching(t, what+" (shared workspace)", shared.AugmentToMaximum(g, initial, rnd), want)
					checkClean(t, what, &shared.solver)
				}
			}
		}
	}
}

// awkwardEdges decorates a case with what the greedy pass must tolerate:
// zero, negative, infinite and NaN weights, self-loops, and endpoints outside
// 0..n-1.
func awkwardEdges(c oracleCase, r *rng.Source) []WeightedEdge {
	edges := append([]WeightedEdge(nil), c.edges...)
	for i := range edges {
		switch r.Intn(12) {
		case 0:
			edges[i].Weight = 0
		case 1:
			edges[i].Weight = -edges[i].Weight
		case 2:
			edges[i].Weight = math.Inf(1)
		case 3:
			edges[i].Weight = math.NaN()
		case 4:
			edges[i].Weight = math.SmallestNonzeroFloat64
		}
	}
	n := c.n
	return append(edges,
		WeightedEdge{U: 0, V: 0, Weight: 9},
		WeightedEdge{U: -1, V: 1, Weight: 9},
		WeightedEdge{U: 1, V: n, Weight: 9},
		WeightedEdge{U: n + 3, V: -2, Weight: 9})
}

var recordFuzzCorpus = flag.Bool("record-fuzz-corpus", false,
	"rewrite testdata/fuzz/FuzzGreedyMatchesReference from the oracle cases")

// TestGreedyMatchesReference pins the typed sorts against sort.SliceStable:
// same matching, same RNG position, on clean and on awkward edge lists.
// With -record-fuzz-corpus its awkward lists of up to 64 vertices become
// FuzzGreedyMatchesReference's seed corpus.
func TestGreedyMatchesReference(t *testing.T) {
	var shared Matcher
	corpus := map[string][]byte{}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, c := range oracleCases(seed, testing.Short()) {
			for _, awkward := range []bool{false, true} {
				edges := c.edges
				if awkward {
					edges = awkwardEdges(c, rng.New(seed).Derive(7))
					if seed == 1 && c.n <= 64 {
						corpus[fmt.Sprintf("%s-%d", c.name, c.n)] = fuzzEdges(c.n, edges)
					}
				}
				for _, randomized := range []bool{false, true} {
					what := fmt.Sprintf("%s n=%d seed=%d rnd=%v awkward=%v", c.name, c.n, seed, randomized, awkward)
					refRnd, rnd := sources(randomized, seed)
					want := refGreedyWeightedMatching(c.n, edges, refRnd)
					sameMatching(t, what, GreedyWeightedMatching(c.n, edges, rnd), want)
					sameStream(t, what, rnd, refRnd)

					_, rnd = sources(randomized, seed)
					sameMatching(t, what+" (shared workspace)", shared.GreedyWeightedMatching(c.n, edges, rnd), want)
				}
			}
		}
	}
	if *recordFuzzCorpus {
		dir := filepath.Join("testdata", "fuzz", "FuzzGreedyMatchesReference")
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range corpus {
			file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fuzzEdges encodes n and an edge list the way FuzzGreedyMatchesReference
// decodes them: one byte for n−1, then ten bytes an edge — each endpoint
// plus one, and the weight's bits.
func fuzzEdges(n int, edges []WeightedEdge) []byte {
	data := []byte{byte(n - 1)}
	for _, e := range edges {
		data = append(data, byte(e.U+1), byte(e.V+1))
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(e.Weight))
	}
	return data
}

// unfuzzEdges inverts fuzzEdges: n is 1..64 and endpoints run from −1 to 254,
// so loops and endpoints outside 0..n−1 occur.
func unfuzzEdges(data []byte) (int, []WeightedEdge) {
	n := 1 + int(data[0])%64
	var edges []WeightedEdge
	for rec := data[1:]; len(rec) >= 10; rec = rec[10:] {
		w := math.Float64frombits(binary.LittleEndian.Uint64(rec[2:]))
		edges = append(edges, WeightedEdge{U: int(rec[0]) - 1, V: int(rec[1]) - 1, Weight: w})
	}
	return n, edges
}

// FuzzGreedyMatchesReference: bytes → n ≤ 64 and an edge list with arbitrary
// float64 weights, loops and endpoints outside 0..n−1. The greedy seed,
// randomized and not, returns the reference's matching and leaves rnd at the
// reference's draw — packed afresh, and from one kept candidate list scanned
// on two streams in turn.
func FuzzGreedyMatchesReference(f *testing.F) {
	f.Add(fuzzEdges(4, []WeightedEdge{{0, 1, math.Inf(1)}, {1, 2, math.NaN()}, {2, 3, 0}, {0, 3, math.MaxFloat64}, {0, 0, 1}, {-1, 2, 1}}))
	f.Add(fuzzEdges(3, []WeightedEdge{{0, 1, math.SmallestNonzeroFloat64}, {1, 2, 1e300}, {0, 2, -1}}))
	f.Add(fuzzEdges(6, []WeightedEdge{{0, 1, 2}, {2, 200, 2}, {3, 3, 2}, {1, 2, 1.9}, {4, 5, 2.1}, {5, -1, 3}, {0, 6, 2}, {3, 4, 1}}))
	// One bucket past the table's reach on either side of a full table, two
	// +Inf links and a tie in the lowest bucket: the shape a planner's
	// environment-wide RowRanks table ranks a subset against.
	f.Add(fuzzEdges(7, []WeightedEdge{{0, 1, 1}, {1, 2, math.Pow(1.25, maxThresholds+1)}, {2, 3, math.Inf(1)}, {3, 4, 1.01}, {4, 5, math.Inf(1)}, {5, 6, math.Pow(1.25, maxThresholds)}, {0, 6, 1.1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, edges := unfuzzEdges(data)
		seed := uint64(len(data))
		for _, randomized := range []bool{false, true} {
			what := fmt.Sprintf("n=%d %d edges rnd=%v", n, len(edges), randomized)
			refRnd, rnd := sources(randomized, seed)
			sameMatching(t, what, GreedyWeightedMatching(n, edges, rnd), refGreedyWeightedMatching(n, edges, refRnd))
			sameStream(t, what, rnd, refRnd)

			var kept Candidates
			var m Matcher
			kept.Load(n, edges, randomized)
			for pass := uint64(1); pass <= 2; pass++ {
				refRnd, rnd := sources(randomized, seed+pass)
				sameMatching(t, what+" kept", m.GreedyScan(nil, &kept, rnd, math.MaxInt), refGreedyWeightedMatching(n, edges, refRnd))
				sameStream(t, what+" kept", rnd, refRnd)
			}
		}
	})
}

// TestBandwidthAwareMatchesReference pins the composed pipeline Algorithm 3
// calls, including the RNG hand-off from the greedy pass to the augmentation.
func TestBandwidthAwareMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, c := range oracleCases(seed, testing.Short()) {
			for _, randomized := range []bool{false, true} {
				what := fmt.Sprintf("%s n=%d seed=%d rnd=%v", c.name, c.n, seed, randomized)
				refRnd, rnd := sources(randomized, seed)
				want := refBandwidthAwareMatching(c.n, c.edges, refRnd)
				sameMatching(t, what, bandwidthAware(c.n, c.edges, rnd), want)
				sameStream(t, what, rnd, refRnd)
			}
		}
	}
}

// TestWeightBucketMatchesReference guards the hoisted log constant.
func TestWeightBucketMatchesReference(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 20000; i++ {
		w := math.Exp(40 * (r.Float64() - 0.5))
		if weightBucket(w) != refWeightBucket(w) {
			t.Fatalf("weightBucket(%v) = %d, reference %d", w, weightBucket(w), refWeightBucket(w))
		}
	}
	for _, w := range []float64{0, -1, 1, 1.25, 1.5625, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		if weightBucket(w) != refWeightBucket(w) {
			t.Fatalf("weightBucket(%v) = %d, reference %d", w, weightBucket(w), refWeightBucket(w))
		}
	}
}

// TestSearchCostIndependentOfN pins the two costs the old solver paid per
// free vertex regardless of what it explored: a fleet of isolated vertices
// (Algorithm 3's completion pass) touches nothing, and a search that explores
// a fixed small component touches the same vertices at any N.
func TestSearchCostIndependentOfN(t *testing.T) {
	touched := func(n int, edges []WeightedEdge, randomized bool) int {
		var m Matcher
		refRnd, rnd := sources(randomized, 1)
		g := NewFromEdges(n, edges)
		sameMatching(t, fmt.Sprintf("n=%d", n), m.AugmentToMaximum(g, nil, rnd), refAugmentToMaximum(g, nil, refRnd))
		return m.solver.touched
	}
	if got := touched(4096, nil, true); got != 0 {
		t.Fatalf("4096 isolated vertices: searches touched %d vertices, want 0", got)
	}
	// A triangle with a tail: one blossom, one vertex left free. Identity
	// root order (nil rnd), so both sizes run the same searches.
	component := []WeightedEdge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	small, large := touched(8, component, false), touched(4096, component, false)
	if small == 0 || small != large {
		t.Fatalf("5-vertex component: touched %d vertices at n=8 but %d at n=4096", small, large)
	}
}

// planner10k is the shape the planner benchmarks share: 10 000 vertices,
// about degree 8, weights spread over a dozen buckets — the plan10k workload.
func planner10k() oracleCase { return sparseCase(10000, 8, rng.New(42)) }

// BenchmarkGreedyWeightedMatching times the greedy seed on a reused
// workspace, as the planner runs it every round.
func BenchmarkGreedyWeightedMatching(b *testing.B) {
	c := planner10k()
	var m Matcher
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GreedyWeightedMatching(c.n, c.edges, r)
	}
}

// BenchmarkAugmentToMaximum times the completion of a greedy seed to maximum
// cardinality on a reused workspace.
func BenchmarkAugmentToMaximum(b *testing.B) {
	c := planner10k()
	var m Matcher
	r := rng.New(1)
	g := NewFromEdges(c.n, c.edges)
	seed := m.GreedyWeightedMatching(c.n, c.edges, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AugmentToMaximum(g, seed, r)
	}
}
