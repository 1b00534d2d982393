package netsim

import (
	"math"
	"slices"
	"testing"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/rng"
)

// oracle is the naive model the CSR storage is checked against: a full
// matrix, every read a double loop.
type oracle [][]float64

func (m oracle) edges(thresh float64) []graph.WeightedEdge {
	var out []graph.WeightedEdge
	for i := range m {
		for j := i + 1; j < len(m); j++ {
			if m[i][j] > 0 && m[i][j] >= thresh {
				out = append(out, graph.WeightedEdge{U: i, V: j, Weight: m[i][j]})
			}
		}
	}
	return out
}

// check compares every read path of b with the model.
func (m oracle) check(t *testing.T, b *Bandwidth) {
	t.Helper()
	n, sum := len(m), 0.0
	if b.N != n {
		t.Fatalf("N = %d, want %d", b.N, n)
	}
	for i := range m {
		for j := range m {
			if b.MBps(i, j) != m[i][j] {
				t.Fatalf("MBps(%d,%d) = %v, want %v", i, j, b.MBps(i, j), m[i][j])
			}
			sum += m[i][j]
		}
	}
	for _, thresh := range []float64{0, 1, 3} {
		want := m.edges(thresh)
		if got := b.AppendEdges(nil, thresh); !slices.Equal(got, want) {
			t.Fatalf("thresh %v: AppendEdges = %v, want %v", thresh, got, want)
		}
	}
	if b.Links() != len(m.edges(0)) {
		t.Fatalf("Links = %d, want %d", b.Links(), len(m.edges(0)))
	}
	if got, want := b.MeanBandwidth(), sum/float64(n*(n-1)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanBandwidth = %v, want %v", got, want)
	}
}

// TestSparseMatchesDenseAPI pins the one storage against the dense model on
// both kinds of input: an asymmetric matrix with zero, negative and missing
// directions (NewBandwidth), and a degree-limited edge list handed over in
// scrambled order and orientation (NewSparseBandwidth), each also after
// straggler scaling.
func TestSparseMatchesDenseAPI(t *testing.T) {
	r := rng.New(9)
	const n = 12
	raw, m := make([][]float64, n), make(oracle, n)
	for i := range raw {
		raw[i], m[i] = make([]float64, n), make([]float64, n)
		for j := range raw[i] {
			if raw[i][j] = 5 * r.Float64(); r.Intn(6) == 0 {
				raw[i][j] = float64(r.Intn(2) - 1) // 0 or -1: no link
			}
		}
	}
	for i := range m {
		for j := range m {
			if i != j {
				m[i][j] = math.Max(0, math.Min(raw[i][j], raw[j][i]))
			}
		}
	}
	complete := NewBandwidth(raw)
	m.check(t, complete)

	const sn = 40
	var edges []graph.WeightedEdge
	sm := make(oracle, sn)
	for i := range sm {
		sm[i] = make([]float64, sn)
	}
	for _, step := range []int{1, 7, 13} {
		for i := 0; i < sn; i++ {
			u, v, w := i, (i+step)%sn, 0.5+4.5*r.Float64()
			if r.Intn(2) == 0 {
				u, v = v, u
			}
			sm[u][v], sm[v][u] = w, w
			edges = append(edges, graph.WeightedEdge{U: u, V: v, Weight: w})
		}
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	limited := NewSparseBandwidth(sn, edges)
	sm.check(t, limited)

	for _, c := range []struct {
		b *Bandwidth
		m oracle
	}{{complete, m}, {limited, sm}} {
		slow := map[int]bool{2: true, 5: true}
		for i := range c.m {
			for j := range c.m {
				if slow[i] || slow[j] {
					c.m[i][j] /= 4
				}
			}
		}
		c.m.check(t, c.b.Scaled([]int{2, 5}, 4))
	}
}

// TestSparseTopologyConnectedAndDeterministic pins the generator contract:
// same seed, same environment; the topology is connected; every link speed
// lies in (lo, hi]; and the edge count tracks the mean-degree target.
func TestSparseTopologyConnectedAndDeterministic(t *testing.T) {
	const n, degree = 200, 8
	a := SparseRandomUniform(n, degree, 0.5, 5, rng.New(3))
	b := SparseRandomUniform(n, degree, 0.5, 5, rng.New(3))
	ae, be := a.AppendEdges(nil, 0), b.AppendEdges(nil, 0)
	if len(ae) != len(be) {
		t.Fatalf("same seed, different edge counts: %d vs %d", len(ae), len(be))
	}
	for k := range ae {
		if ae[k] != be[k] {
			t.Fatalf("same seed, edge %d differs: %+v vs %+v", k, ae[k], be[k])
		}
	}
	if !graph.NewFromEdges(a.N, a.AppendEdges(nil, 0)).IsConnected() {
		t.Fatal("sparse topology is not connected")
	}
	for _, e := range ae {
		if e.Weight <= 0.5 || e.Weight > 5 {
			t.Fatalf("edge (%d,%d) speed %v outside (0.5, 5]", e.U, e.V, e.Weight)
		}
	}
	// Ring (n edges) <= total <= target (n*degree/2).
	if len(ae) < n || len(ae) > n*degree/2 {
		t.Fatalf("%d edges for n=%d degree=%d", len(ae), n, degree)
	}
	if got := SparseRandomUniform(n, degree, 0.5, 5, rng.New(4)).AppendEdges(nil, 0); len(got) == len(ae) {
		same := true
		for k := range got {
			if got[k] != ae[k] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical environments")
		}
	}
}

// TestSparseClusteredFasterInside mirrors TestClusteredFasterInside for the
// sparse generator: intra-cluster links must be faster on average.
func TestSparseClusteredFasterInside(t *testing.T) {
	b := SparseClustered(60, 3, 10, 8, 0.5, rng.New(5))
	var fastSum, slowSum float64
	var fastN, slowN int
	b.ForEachEdge(0, func(u, v int, w float64) {
		if u%3 == v%3 {
			fastSum += w
			fastN++
		} else {
			slowSum += w
			slowN++
		}
	})
	if fastN == 0 || slowN == 0 {
		t.Fatalf("degenerate topology: %d intra, %d cross links", fastN, slowN)
	}
	if fastSum/float64(fastN) <= slowSum/float64(slowN) {
		t.Fatalf("intra-cluster mean %v not above cross-cluster mean %v",
			fastSum/float64(fastN), slowSum/float64(slowN))
	}
}

// TestSparseScaledAndDynamic pins the composition's first step: straggler
// scaling is baked into the base (sharing its immutable topology, leaving it
// unwritten), and the clock's jitter envelope is then around the scaled
// speeds, not the original ones.
func TestSparseScaledAndDynamic(t *testing.T) {
	base := SparseRandomUniform(30, 4, 1, 4, rng.New(7))
	before := base.AppendEdges(nil, 0)
	sc := base.Scaled([]int{2, 5}, 4)
	if &sc.nbr[0] != &base.nbr[0] || !slices.Equal(base.AppendEdges(nil, 0), before) {
		t.Fatal("Scaled copied the topology or wrote into its receiver")
	}
	env := NewRoundEnv(sc, 0.3, 11, nil)
	for r := 0; r < 5; r++ {
		env.Tick(r)
		base.ForEachEdge(0, func(u, v int, w float64) {
			if u == 2 || v == 2 || u == 5 || v == 5 {
				w /= 4
			}
			if ratio := env.Current().MBps(u, v) / w; ratio < 0.7-1e-9 || ratio > 1.3+1e-9 {
				t.Fatalf("round %d link (%d,%d): jitter ratio %v around the scaled speed", r, u, v, ratio)
			}
		})
	}
}

// TestNewSparseBandwidthValidation pins the constructor's edge rules:
// self-loops, out-of-range endpoints and duplicate pairs panic; zero and
// negative weights drop the link entirely.
func TestNewSparseBandwidthValidation(t *testing.T) {
	mustPanic := func(name string, edges []graph.WeightedEdge) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted", name)
			}
		}()
		NewSparseBandwidth(4, edges)
	}
	mustPanic("self-loop", []graph.WeightedEdge{{U: 1, V: 1, Weight: 2}})
	mustPanic("out of range", []graph.WeightedEdge{{U: 0, V: 9, Weight: 2}})
	mustPanic("duplicate pair", []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 0, Weight: 3},
	})

	b := NewSparseBandwidth(4, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 2},
		{U: 1, V: 2, Weight: 0},
		{U: 2, V: 3, Weight: -1},
	})
	if b.Links() != 1 || b.MBps(0, 1) != 2 {
		t.Fatalf("kept %d links, MBps(0,1)=%v", b.Links(), b.MBps(0, 1))
	}
	if b.MBps(1, 2) != 0 || b.MBps(2, 3) != 0 {
		t.Fatal("zero/negative-weight links not dropped")
	}
}

// Links returns the number of undirected links (all have positive bandwidth);
// a test probe.
func (b *Bandwidth) Links() int { return len(b.nbr) / 2 }

// TestEdgeAndFilterBufferReuse pins the allocation-free per-round form:
// AppendEdges extends the caller's buffer in place when capacity suffices.
func TestEdgeAndFilterBufferReuse(t *testing.T) {
	b := SparseRandomUniform(20, 4, 1, 5, rng.New(2))
	buf := make([]graph.WeightedEdge, 0, 4*b.Links())
	out := b.AppendEdges(buf, 0)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendEdges reallocated despite sufficient capacity")
	}
	again := b.AppendEdges(out[:0], 0)
	if &again[0] != &out[0] || len(again) != len(out) {
		t.Fatal("AppendEdges did not reuse the buffer on the second round")
	}
}
