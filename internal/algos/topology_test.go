package algos

import (
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/gossip"
	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// The static communication topologies decentralized SGD is classically run
// on — ring, 2-D torus, hypercube, random regular expanders. The paper's
// §II-C argues the ring is the best information spreader among ≤2-neighbor
// topologies; the D-PSGD ablation below makes the comparison measurable
// through the recipe's mix seam: more neighbors buy faster consensus at
// proportionally higher per-round traffic.

// topo is a named static undirected communication graph.
type topo struct {
	name string
	g    *graph.Graph
}

// simpleGraph builds the graph of pairs, skipping self-loops and repeated
// pairs (the collapse of a degenerate torus); simple reports whether none
// was skipped.
func simpleGraph(n int, pairs [][2]int) (g *graph.Graph, simple bool) {
	seen := map[[2]int]bool{}
	var edges []graph.WeightedEdge
	for _, p := range pairs {
		key := [2]int{min(p[0], p[1]), max(p[0], p[1])}
		if p[0] == p[1] || seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, graph.WeightedEdge{U: p[0], V: p[1]})
	}
	return graph.NewFromEdges(n, edges), len(edges) == len(pairs)
}

// ring returns the cycle on n vertices.
func ring(n int) topo {
	var pairs [][2]int
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]int{i, (i + 1) % n})
	}
	g, _ := simpleGraph(n, pairs)
	return topo{fmt.Sprintf("ring-%d", n), g}
}

// torus returns the rows×cols 2-D torus (each vertex has 4 neighbors;
// degenerate dimensions collapse gracefully).
func torus(rows, cols int) topo {
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	var pairs [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pairs = append(pairs, [2]int{id(r, c), id(r, c+1)}, [2]int{id(r, c), id(r+1, c)})
		}
	}
	g, _ := simpleGraph(rows*cols, pairs)
	return topo{fmt.Sprintf("torus-%dx%d", rows, cols), g}
}

// hypercube returns the d-dimensional hypercube on 2^d vertices.
func hypercube(d int) topo {
	n := 1 << d
	var pairs [][2]int
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			pairs = append(pairs, [2]int{v, v ^ (1 << b)})
		}
	}
	g, _ := simpleGraph(n, pairs)
	return topo{fmt.Sprintf("hypercube-%d", d), g}
}

// randomRegular returns a random d-regular graph on n vertices via the
// pairing model with retries (n·d must be even). Random regular graphs are
// expanders with high probability — near-optimal mixing at constant degree.
func randomRegular(n, d int, r *rng.Source) topo {
	if d < 1 || d >= n || n*d%2 != 0 {
		panic(fmt.Sprintf("invalid regular graph n=%d d=%d", n, d))
	}
	for attempt := 0; attempt < 200; attempt++ {
		g := tryPairing(n, d, r)
		if g != nil && g.IsConnected() {
			return topo{fmt.Sprintf("random-%d-regular-%d", d, n), g}
		}
	}
	panic("pairing model failed to produce a simple connected graph")
}

// tryPairing samples one pairing-model configuration; returns nil if it has
// self-loops or multi-edges.
func tryPairing(n, d int, r *rng.Source) *graph.Graph {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	var pairs [][2]int
	for i := 0; i < len(stubs); i += 2 {
		pairs = append(pairs, [2]int{stubs[i], stubs[i+1]})
	}
	if g, simple := simpleGraph(n, pairs); simple {
		return g
	}
	return nil
}

func (tp topo) adj() [][]int {
	adj := make([][]int, tp.g.N)
	for i := range adj {
		adj[i] = tp.g.Neighbors(i)
	}
	return adj
}

// dpsgdOn is D-PSGD over tp with Metropolis–Hastings mixing rows: the d-psgd
// recipe's node/codec composition, with tp's adjacency driving the
// Neighborhood pattern.
func dpsgdOn(fc FleetConfig, tp topo) Algorithm {
	return newOver(fc, Recipe{Algo: "d-psgd", mix: &mixGraph{name: "D-PSGD(" + tp.name + ")", adj: tp.adj()}}, nil, gossip.Config{}, Membership{})
}

// TestDCDTorusRunToRunBitIdentical: DCD-PSGD's gossip is a float sum over the
// neighbours' replicas, so on a degree-4 torus its order is observable — two
// runs of the same recipe must still end on bit-identical models. (On the
// paper's ring a row has two terms and any order gives the same sum.)
func TestDCDTorusRunToRunBitIdentical(t *testing.T) {
	const n, rounds = 9, 12
	run := func() [][]float64 {
		fc, bw, va := testSetup(t, n)
		alg := newOver(fc, Recipe{Algo: "dcd-psgd", C: 4, mix: &mixGraph{name: "DCD-PSGD(torus)", adj: torus(3, 3).adj()}}, nil, gossip.Config{}, Membership{})
		runRounds(t, alg, bw, va, rounds)
		var params [][]float64
		for _, m := range alg.Models() {
			params = append(params, m.FlatParams(nil))
		}
		return params
	}
	a, b := run(), run()
	for rank := range a {
		for j := range a[rank] {
			if math.Float64bits(a[rank][j]) != math.Float64bits(b[rank][j]) {
				t.Fatalf("rank %d param %d: %v in one run, %v in the next", rank, j, a[rank][j], b[rank][j])
			}
		}
	}
}

func TestDPSGDTopologyVariantsLearn(t *testing.T) {
	const n, rounds = 8, 150
	tops := []topo{
		ring(n),
		torus(2, 4),
		hypercube(3),
		randomRegular(n, 3, rng.New(4)),
	}
	for _, tp := range tops {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			t.Parallel()
			fc, bw, va := testSetup(t, n)
			alg := dpsgdOn(fc, tp)
			acc, led := runRounds(t, alg, bw, va, rounds)
			if acc < 0.75 {
				t.Fatalf("%s accuracy %v", tp.name, acc)
			}
			if !led.ConservationOK() {
				t.Fatal("conservation")
			}
		})
	}
}

func TestDPSGDTopologyTrafficScalesWithDegree(t *testing.T) {
	const n, rounds = 8, 10
	run := func(tp topo) float64 {
		fc, bw, _ := testSetup(t, n)
		alg := dpsgdOn(fc, tp)
		led := netsim.NewLedger(bw)
		for r := 0; r < rounds; r++ {
			alg.Step(r, led)
		}
		return led.MeanWorkerTrafficMB()
	}
	ringMB := run(ring(n))      // degree 2
	cubeMB := run(hypercube(3)) // degree 3
	if cubeMB <= ringMB {
		t.Fatalf("hypercube traffic %v not above ring %v", cubeMB, ringMB)
	}
	ratio := cubeMB / ringMB
	if ratio < 1.3 || ratio > 1.7 { // 3/2 = 1.5
		t.Fatalf("traffic ratio %v, want ~1.5", ratio)
	}
}

func TestDPSGDTopologyConsensusFasterOnExpander(t *testing.T) {
	// After the same number of rounds, the hypercube's consensus error must
	// be below the ring's (more edges, faster mixing).
	const n, rounds = 8, 60
	consensusOf := func(tp topo) float64 {
		fc, bw, _ := testSetup(t, n)
		alg := dpsgdOn(fc, tp)
		led := netsim.NewLedger(bw)
		for r := 0; r < rounds; r++ {
			alg.Step(r, led)
		}
		models := alg.Models()
		dim := models[0].ParamCount()
		mean := make([]float64, dim)
		for _, m := range models {
			for j, v := range m.FlatParams(nil) {
				mean[j] += v / float64(len(models))
			}
		}
		tot := 0.0
		for _, m := range models {
			for j, v := range m.FlatParams(nil) {
				d := v - mean[j]
				tot += float64(d * d)
			}
		}
		return tot
	}
	ringErr := consensusOf(ring(n))
	cubeErr := consensusOf(hypercube(3))
	if cubeErr >= ringErr {
		t.Fatalf("hypercube consensus error %v not below ring %v", cubeErr, ringErr)
	}
}

func TestDPSGDTopologyValidation(t *testing.T) {
	fc, _, _ := testSetup(t, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("size mismatch accepted")
			}
		}()
		dpsgdOn(fc, ring(8))
	}()
}

func TestRing(t *testing.T) {
	tp := ring(8)
	if tp.g.EdgeCount() != 8 || !tp.g.IsConnected() {
		t.Fatalf("ring: %d edges", tp.g.EdgeCount())
	}
	for v := 0; v < 8; v++ {
		if len(tp.g.Neighbors(v)) != 2 {
			t.Fatalf("ring degree at %d", v)
		}
	}
}

func TestTorus(t *testing.T) {
	tp := torus(3, 4)
	if tp.g.N != 12 || !tp.g.IsConnected() {
		t.Fatal("torus shape")
	}
	for v := 0; v < 12; v++ {
		if len(tp.g.Neighbors(v)) != 4 {
			t.Fatalf("torus degree %d at %d", len(tp.g.Neighbors(v)), v)
		}
	}
}

func TestHypercube(t *testing.T) {
	tp := hypercube(4)
	if tp.g.N != 16 || !tp.g.IsConnected() {
		t.Fatal("hypercube shape")
	}
	for v := 0; v < 16; v++ {
		if len(tp.g.Neighbors(v)) != 4 {
			t.Fatal("hypercube degree")
		}
	}
	// Neighbors differ in exactly one bit.
	for v := 0; v < 16; v++ {
		for _, u := range tp.g.Neighbors(v) {
			x := uint(v ^ u)
			if x&(x-1) != 0 {
				t.Fatalf("edge %d-%d differs in >1 bit", v, u)
			}
		}
	}
}

func TestRandomRegular(t *testing.T) {
	tp := randomRegular(16, 3, rng.New(5))
	if !tp.g.IsConnected() {
		t.Fatal("not connected")
	}
	for v := 0; v < 16; v++ {
		if len(tp.g.Neighbors(v)) != 3 {
			t.Fatalf("degree %d at %d", len(tp.g.Neighbors(v)), v)
		}
	}
}

func TestRandomRegularBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd n·d")
		}
	}()
	randomRegular(5, 3, rng.New(1))
}

// metropolisW is the dense mixing matrix the production rows add up to.
func metropolisW(tp topo) *tensor.Matrix {
	adj := tp.adj()
	w := tensor.NewMatrix(tp.g.N, tp.g.N)
	for i := range adj {
		for _, e := range metropolisRow(adj, i) {
			w.Row(i)[e.rank] = e.w
		}
	}
	return w
}

func TestMetropolisWDoublyStochastic(t *testing.T) {
	tops := []topo{
		ring(9),
		torus(3, 3),
		hypercube(3),
		randomRegular(12, 3, rng.New(7)),
		{"star-5", graph.NewFromEdges(5, []graph.WeightedEdge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})},
	}
	for _, tp := range tops {
		w := metropolisW(tp)
		if !w.IsDoublyStochastic(1e-12) {
			t.Fatalf("%s: Metropolis rows not doubly stochastic", tp.name)
		}
		for i := 0; i < w.Rows; i++ {
			for j := 0; j < w.Cols; j++ {
				if w.Row(i)[j] != w.Row(j)[i] {
					t.Fatalf("%s: asymmetric at (%d,%d)", tp.name, i, j)
				}
			}
		}
	}
	// The paper's ring: the uniform 1/3 with the self weight absorbing the
	// remainder, to the bit — the rows d-psgd and dcd-psgd have always run on
	// (the two-worker ring's neighbors coincide: 1/2, 1/2).
	for _, n := range []int{2, 3, 8} {
		adj := ringAdjacency(n)
		for i := range adj {
			nb := 1 / float64(len(adj[i])+1)
			want := map[int]float64{i: 1 - float64(float64(len(adj[i]))*nb)}
			for _, j := range adj[i] {
				want[j] = nb
			}
			got := metropolisRow(adj, i)
			if len(got) != len(want) {
				t.Fatalf("ring-%d row %d: %v, want %v", n, i, got, want)
			}
			for j, v := range want {
				if e := got.find(j); e == nil || math.Float64bits(e.w) != math.Float64bits(v) {
					t.Fatalf("ring-%d W[%d][%d] = %v, want %v", n, i, j, got, v)
				}
			}
		}
	}
}

func TestGossipConsensusOnTopologies(t *testing.T) {
	// Iterating x ← Wx on any connected topology must contract disagreement.
	r := rng.New(11)
	for _, tp := range []topo{ring(12), torus(3, 4), hypercube(3)} {
		w := metropolisW(tp)
		x := make([]float64, tp.g.N)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		dis := func(x []float64) float64 {
			m := tensor.Mean(x)
			s := 0.0
			for _, v := range x {
				s += float64((v - m) * (v - m))
			}
			return s
		}
		d0 := dis(x)
		for it := 0; it < 200; it++ {
			next := make([]float64, len(x))
			for i := range next {
				next[i] = tensor.Dot(w.Row(i), x)
			}
			x = next
		}
		if dis(x) > d0*1e-6 {
			t.Fatalf("%s: consensus not reached (%v -> %v)", tp.name, d0, dis(x))
		}
	}
}
