package gossip

import (
	"math"
	"testing"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

func TestPowerIterationDiagonal(t *testing.T) {
	a := tensor.MatrixFrom(3, 3, []float64{
		5, 0, 0,
		0, 2, 0,
		0, 0, 1,
	})
	l, v := PowerIteration(a, 200)
	if math.Abs(l-5) > 1e-6 {
		t.Fatalf("dominant eigenvalue = %v, want 5", l)
	}
	if math.Abs(math.Abs(v[0])-1) > 1e-4 {
		t.Fatalf("dominant eigenvector = %v, want ±e1", v)
	}
}

func TestSecondLargestEigenvalueDiagonal(t *testing.T) {
	a := tensor.MatrixFrom(4, 4, []float64{
		7, 0, 0, 0,
		0, 3, 0, 0,
		0, 0, 2, 0,
		0, 0, 0, 1,
	})
	if got := SecondLargestEigenvalue(a, 300); math.Abs(got-3) > 1e-5 {
		t.Fatalf("second eigenvalue = %v, want 3", got)
	}
}

func TestSecondLargestEigenvalueSymmetric(t *testing.T) {
	// 2x2 symmetric [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := tensor.MatrixFrom(2, 2, []float64{2, 1, 1, 2})
	if got := SecondLargestEigenvalue(a, 300); math.Abs(got-1) > 1e-5 {
		t.Fatalf("second eigenvalue = %v, want 1", got)
	}
}

// pairW builds the doubly stochastic gossip matrix for a single matching on
// n vertices: matched pairs average (1/2, 1/2), unmatched keep themselves.
func pairW(n int, pairs [][2]int) *tensor.Matrix {
	w := tensor.NewMatrix(n, n)
	matched := make([]bool, n)
	for _, p := range pairs {
		w.Row(p[0])[p[0]] = 0.5
		w.Row(p[1])[p[1]] = 0.5
		w.Row(p[0])[p[1]] = 0.5
		w.Row(p[1])[p[0]] = 0.5
		matched[p[0]], matched[p[1]] = true, true
	}
	for i := 0; i < n; i++ {
		if !matched[i] {
			w.Row(i)[i] = 1
		}
	}
	return w
}

func TestRhoRingPairingsBelowOne(t *testing.T) {
	// Alternating even/odd pairings on a ring of 4:
	// {0-1, 2-3} and {1-2, 3-0}. Their union is connected, so ρ < 1.
	w1 := pairW(4, [][2]int{{0, 1}, {2, 3}})
	w2 := pairW(4, [][2]int{{1, 2}, {3, 0}})
	rho := RhoOfExpectedWtW([]*tensor.Matrix{w1, w2}, 500)
	if rho >= 1-1e-9 {
		t.Fatalf("rho = %v, want < 1 for connected PC edges", rho)
	}
	if rho < 0 {
		t.Fatalf("rho = %v, want >= 0", rho)
	}
}

func TestRhoDisconnectedIsOne(t *testing.T) {
	// Only ever pair {0-1} and {2-3}: the PC edge graph is disconnected, so
	// consensus across the two halves is impossible and ρ = 1.
	w := pairW(4, [][2]int{{0, 1}, {2, 3}})
	rho := RhoOfExpectedWtW([]*tensor.Matrix{w}, 500)
	if math.Abs(rho-1) > 1e-6 {
		t.Fatalf("rho = %v, want 1 for disconnected PC edges", rho)
	}
}

func TestRhoIdentityIsOne(t *testing.T) {
	// No communication at all.
	w := pairW(4, nil)
	rho := RhoOfExpectedWtW([]*tensor.Matrix{w}, 500)
	if math.Abs(rho-1) > 1e-6 {
		t.Fatalf("rho = %v, want 1 for identity gossip", rho)
	}
}

func TestMixingRate(t *testing.T) {
	tests := []struct {
		p, rho, want float64
	}{
		{1, 0, 0},   // dense exchange, perfect mixing per matched pair
		{0, 0.5, 1}, // no coordinates exchanged: no contraction
		{0.01, 0.9, 0.99 + 0.01*0.81},
		{0.25, 0.5, 0.75 + 0.25*0.25},
	}
	for _, tc := range tests {
		if got := MixingRate(tc.p, tc.rho); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("MixingRate(%v,%v) = %v, want %v", tc.p, tc.rho, got, tc.want)
		}
	}
}

func TestRhoEmptyIsNaN(t *testing.T) {
	if !math.IsNaN(RhoOfExpectedWtW(nil, 10)) {
		t.Fatal("expected NaN for no matrices")
	}
	if !math.IsNaN(RhoOfMatchings(nil, 10)) {
		t.Fatal("expected NaN for no matchings")
	}
}

// matchingW materializes a matching's doubly stochastic gossip matrix — the
// dense object RhoOfMatchings avoids building.
func matchingW(m graph.Matching) *tensor.Matrix {
	var pairs [][2]int
	for v, p := range m {
		if p > v {
			pairs = append(pairs, [2]int{v, p})
		}
	}
	return pairW(len(m), pairs)
}

// TestRhoOfMatchingsMatchesDense pins the matrix-free form against the dense
// oracle: over random matching samples the two must agree to power-iteration
// precision, on both connected (ρ < 1) and disconnected (ρ = 1) ensembles.
func TestRhoOfMatchingsMatchesDense(t *testing.T) {
	const n, samples, iters = 12, 8, 800
	r := rng.New(17)
	var ms []graph.Matching
	var ws []*tensor.Matrix
	for s := 0; s < samples; s++ {
		var edges []graph.WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.3 {
					edges = append(edges, graph.WeightedEdge{U: u, V: v, Weight: 1 + r.Float64()})
				}
			}
		}
		m := graph.GreedyWeightedMatching(n, edges, rng.New(uint64(100+s)))
		ms = append(ms, m)
		ws = append(ws, matchingW(m))
	}
	sparse, dense := RhoOfMatchings(ms, iters), RhoOfExpectedWtW(ws, iters)
	if math.Abs(sparse-dense) > 1e-6 {
		t.Fatalf("matrix-free rho %v, dense rho %v", sparse, dense)
	}
	if sparse >= 1-1e-9 || sparse < 0 {
		t.Fatalf("rho %v outside [0, 1) for a connected ensemble", sparse)
	}

	// A single fixed pairing never connects the fleet: both forms must say
	// rho = 1 exactly (to iteration precision).
	split := make(graph.Matching, 4)
	split[0], split[1], split[2], split[3] = 1, 0, 3, 2
	sp, de := RhoOfMatchings([]graph.Matching{split}, iters), RhoOfExpectedWtW([]*tensor.Matrix{matchingW(split)}, iters)
	if math.Abs(sp-1) > 1e-6 || math.Abs(de-1) > 1e-6 {
		t.Fatalf("disconnected ensemble: matrix-free %v, dense %v, want 1", sp, de)
	}
}

// regularW is the Metropolis–Hastings gossip matrix of a d-regular graph:
// 1/(d+1) on every edge and on the diagonal.
func regularW(g *graph.Graph) *tensor.Matrix {
	w := tensor.NewMatrix(g.N, g.N)
	for v := 0; v < g.N; v++ {
		nbrs := g.Neighbors(v)
		w.Row(v)[v] = 1 / float64(len(nbrs)+1)
		for _, u := range nbrs {
			w.Row(v)[u] = 1 / float64(len(nbrs)+1)
		}
	}
	return w
}

// randomRegularGraph draws a connected simple d-regular graph on n vertices
// by the pairing model, retrying on self-loops and multi-edges.
func randomRegularGraph(t *testing.T, n, d int, r *rng.Source) *graph.Graph {
	t.Helper()
	stubs := make([]int, n*d)
attempts:
	for attempt := 0; attempt < 200; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		seen := map[[2]int]bool{}
		var edges []graph.WeightedEdge
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			key := [2]int{min(u, v), max(u, v)}
			if u == v || seen[key] {
				continue attempts
			}
			seen[key] = true
			edges = append(edges, graph.WeightedEdge{U: u, V: v})
		}
		if g := graph.NewFromEdges(n, edges); g.IsConnected() {
			return g
		}
	}
	t.Fatal("pairing model failed to produce a simple connected graph")
	return nil
}

func TestExpanderMixesFasterThanRing(t *testing.T) {
	// Spectral comparison at equal size: the hypercube (degree 4) and a
	// random 4-regular graph must have smaller second eigenvalue than the
	// ring (degree 2) on 16 vertices — more edges, faster consensus. This
	// quantifies the communication/mixing trade-off of §II-C.
	const n, iters = 16, 600
	var hypercube []graph.WeightedEdge
	for v := 0; v < n; v++ {
		for b := 0; b < 4; b++ {
			if w := v ^ (1 << b); w > v {
				hypercube = append(hypercube, graph.WeightedEdge{U: v, V: w})
			}
		}
	}
	cube4 := graph.NewFromEdges(n, hypercube)
	ring := SecondLargestEigenvalue(RingW(n), iters)
	cube := SecondLargestEigenvalue(regularW(cube4), iters)
	rnd4 := SecondLargestEigenvalue(regularW(randomRegularGraph(t, n, 4, rng.New(3))), iters)
	if cube >= ring {
		t.Fatalf("hypercube rho %v not below ring rho %v", cube, ring)
	}
	if rnd4 >= ring {
		t.Fatalf("random 4-regular rho %v not below ring rho %v", rnd4, ring)
	}
}

// RingW returns the static ring gossip matrix used by D-PSGD and DCD-PSGD in
// the paper's experiments: worker i averages with its two ring neighbors
// (weights 1/3 each, 1/3 self).
func RingW(n int) *tensor.Matrix {
	w := tensor.NewMatrix(n, n)
	if n == 1 {
		w.Row(0)[0] = 1
		return w
	}
	if n == 2 {
		// Degenerate ring: the two neighbors coincide.
		w.Row(0)[0] = 0.5
		w.Row(0)[1] = 0.5
		w.Row(1)[0] = 0.5
		w.Row(1)[1] = 0.5
		return w
	}
	for i := 0; i < n; i++ {
		w.Row(i)[i] = 1.0 / 3
		w.Row(i)[(i+1)%n] = 1.0 / 3
		w.Row(i)[(i+n-1)%n] = 1.0 / 3
	}
	return w
}
