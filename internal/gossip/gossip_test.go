package gossip

import (
	"math"
	"testing"
	"testing/quick"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

func uniformEnv(n int, seed uint64) *netsim.Bandwidth {
	return netsim.RandomUniform(n, 0, 5, rng.New(seed))
}

// W materializes the round's doubly stochastic gossip matrix, dense N×N; the
// training path applies Match directly and never builds it.
func (r Round) W() *tensor.Matrix { return MatchingW(r.Match) }

// MatchingW converts a matching into the doubly stochastic gossip matrix of
// Algorithm 3's GenerateW: matched pairs average (W_ii = W_jj = W_ij = W_ji
// = 1/2); unmatched workers keep their model (W_ii = 1).
func MatchingW(m graph.Matching) *tensor.Matrix {
	n := len(m)
	w := tensor.NewMatrix(n, n)
	for v, p := range m {
		switch {
		case p == -1:
			w.Row(v)[v] = 1
		default:
			w.Row(v)[v] = 0.5
			w.Row(v)[p] = 0.5
		}
	}
	return w
}

func TestMatchingWDoublyStochastic(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(20)
		m := RandomMatching(n, r)
		return MatchingW(m).IsDoublyStochastic(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingWUnmatchedSelfLoop(t *testing.T) {
	m := graph.Matching{1, 0, -1}
	w := MatchingW(m)
	if w.Row(2)[2] != 1 || w.Row(0)[1] != 0.5 || w.Row(0)[0] != 0.5 {
		t.Fatalf("W = %v", w.Data)
	}
	if !w.IsDoublyStochastic(1e-12) {
		t.Fatal("not doubly stochastic")
	}
}

func TestRandomMatchingPerfectForEvenN(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{2, 4, 8, 14, 32} {
		m := RandomMatching(n, r)
		if !m.Valid(n) || m.Size() != n/2 {
			t.Fatalf("n=%d: size %d", n, m.Size())
		}
	}
	// Odd n leaves exactly one unmatched.
	m := RandomMatching(7, r)
	if m.Size() != 3 {
		t.Fatalf("odd n size %d", m.Size())
	}
}

func TestRingW(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 32} {
		w := RingW(n)
		if !w.IsDoublyStochastic(1e-12) {
			t.Fatalf("RingW(%d) not doubly stochastic", n)
		}
	}
	w := RingW(4)
	if w.Row(0)[1] != 1.0/3 || w.Row(0)[3] != 1.0/3 || w.Row(0)[0] != 1.0/3 || w.Row(0)[2] != 0 {
		t.Fatalf("RingW(4) row 0 wrong: %v", w.Row(0))
	}
}

func TestRingNeighbors(t *testing.T) {
	p, nx := RingNeighbors(0, 5)
	if p != 4 || nx != 1 {
		t.Fatalf("RingNeighbors(0,5) = %d,%d", p, nx)
	}
}

func TestGeneratorProducesPerfectMatchings(t *testing.T) {
	bw := uniformEnv(32, 3)
	g := NewGenerator(bw, Config{BThres: 2.5, TThres: 8}, 42)
	for round := 0; round < 100; round++ {
		r := g.NextActive(round, nil)
		if !r.Match.Valid(32) {
			t.Fatalf("round %d: invalid matching", round)
		}
		if r.Match.Size() != 16 {
			t.Fatalf("round %d: matching size %d, want 16", round, r.Match.Size())
		}
		if !r.W().IsDoublyStochastic(1e-12) {
			t.Fatalf("round %d: W not doubly stochastic", round)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	bw := uniformEnv(16, 5)
	a := NewGenerator(bw, Config{BThres: 2, TThres: 5}, 7)
	b := NewGenerator(bw, Config{BThres: 2, TThres: 5}, 7)
	for round := 0; round < 30; round++ {
		ma := a.NextActive(round, nil).Match
		mb := b.NextActive(round, nil).Match
		for v := range ma {
			if ma[v] != mb[v] {
				t.Fatalf("round %d: matchings diverge at %d", round, v)
			}
		}
	}
}

func TestGeneratorUpdatesTimestamps(t *testing.T) {
	bw := uniformEnv(8, 9)
	g := NewGenerator(bw, Config{BThres: 0, TThres: 4}, 1)
	r := g.NextActive(0, nil)
	for v, p := range r.Match {
		if p > v && g.LastUsed(v, p) != 0 {
			t.Fatalf("timestamp not recorded for (%d,%d)", v, p)
		}
	}
}

func TestGeneratorPCEdgesConnected(t *testing.T) {
	// Assumption 3's prerequisite: over a window of rounds, the set of used
	// edges must form a connected graph. Use a high BThres so B* alone is NOT
	// connected — the recency mechanism must inject bridging edges.
	bw := netsim.FourteenCities()
	g := NewGenerator(bw, Config{BThres: 5, TThres: 6}, 11)
	n := bw.N
	if graph.NewFromEdges(n, bw.AppendEdges(nil, 5)).IsConnected() {
		t.Fatal("test premise broken: B* should be disconnected at 5 MB/s")
	}
	const rounds = 120
	seen := map[[2]int]bool{}
	var used []graph.WeightedEdge
	for round := 0; round < rounds; round++ {
		for v, p := range g.NextActive(round, nil).Match {
			if p > v && !seen[[2]int{v, p}] {
				seen[[2]int{v, p}] = true
				used = append(used, graph.WeightedEdge{U: v, V: p})
			}
		}
	}
	if !graph.NewFromEdges(n, used).IsConnected() {
		t.Fatal("union of used edges is not connected — Assumption 3 violated")
	}
	// Moreover, every sliding window of 3*TThres rounds must itself restore
	// connectivity at least once (Forced rounds appear regularly).
	forced := 0
	for round := rounds; round < rounds+40; round++ {
		if g.NextActive(round, nil).Forced {
			forced++
		}
	}
	if forced == 0 {
		t.Fatal("recency constraint never forced reconnection in 40 rounds")
	}
}

func TestGeneratorRhoBelowOne(t *testing.T) {
	// Sample gossip matrices from the generator and verify the second
	// largest eigenvalue of the empirical E[WᵀW] is < 1.
	bw := netsim.FourteenCities()
	g := NewGenerator(bw, Config{BThres: 2, TThres: 5}, 13)
	var ws []*tensor.Matrix
	for round := 0; round < 200; round++ {
		ws = append(ws, g.NextActive(round, nil).W())
	}
	rho := RhoOfExpectedWtW(ws, 400)
	if rho >= 1-1e-6 {
		t.Fatalf("rho = %v, want < 1", rho)
	}
	if rho < 0 || math.IsNaN(rho) {
		t.Fatalf("rho = %v invalid", rho)
	}
}

func TestGeneratorPrefersHighBandwidth(t *testing.T) {
	// The mean matched bandwidth under SAPS should comfortably exceed that of
	// uniformly random matchings — the Fig. 5 claim.
	bw := uniformEnv(32, 21)
	g := NewGenerator(bw, Config{BThres: 3, TThres: 10}, 17)
	r := rng.New(99)
	var saps, random float64
	const rounds = 200
	for round := 0; round < rounds; round++ {
		saps += MeanMatchedBandwidth(g.NextActive(round, nil).Match, bw)
		random += MeanMatchedBandwidth(RandomMatching(32, r), bw)
	}
	saps /= rounds
	random /= rounds
	if saps <= random {
		t.Fatalf("SAPS mean matched bandwidth %v not above random %v", saps, random)
	}
}

func TestGeneratorSparseEnvironmentStillMatches(t *testing.T) {
	// An environment where some links are missing entirely (zero bandwidth):
	// build a path topology; maximum matching size n/2 is impossible every
	// round, but the matching must stay valid and nonempty.
	raw := make([][]float64, 6)
	for i := range raw {
		raw[i] = make([]float64, 6)
	}
	for i := 0; i < 5; i++ {
		raw[i][i+1] = 2
		raw[i+1][i] = 2
	}
	bw := netsim.NewBandwidth(raw)
	g := NewGenerator(bw, Config{BThres: 1, TThres: 4}, 3)
	for round := 0; round < 50; round++ {
		r := g.NextActive(round, nil)
		if !r.Match.Valid(6) {
			t.Fatalf("round %d invalid", round)
		}
		if r.Match.Size() == 0 {
			t.Fatalf("round %d: no pairs matched on a connected path", round)
		}
		for v, p := range r.Match {
			if p > v && bw.MBps(v, p) <= 0 {
				t.Fatalf("matched a nonexistent link (%d,%d)", v, p)
			}
		}
	}
}

func TestGeneratorBadTThresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGenerator(uniformEnv(4, 1), Config{TThres: 0}, 1)
}

func TestMeanMatchedBandwidth(t *testing.T) {
	bw := netsim.NewBandwidth([][]float64{
		{0, 4, 0, 0},
		{4, 0, 0, 0},
		{0, 0, 0, 2},
		{0, 0, 2, 0},
	})
	m := graph.Matching{1, 0, 3, 2}
	if got := MeanMatchedBandwidth(m, bw); got != 3 {
		t.Fatalf("MeanMatchedBandwidth = %v, want 3", got)
	}
	if got := MeanMatchedBandwidth(graph.Matching{-1, -1, -1, -1}, bw); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestRingMeanBandwidth(t *testing.T) {
	bw := netsim.NewBandwidth([][]float64{
		{0, 1, 3},
		{1, 0, 2},
		{3, 2, 0},
	})
	want := (1.0 + 2 + 3) / 3
	if got := RingMeanBandwidth(bw); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RingMeanBandwidth = %v, want %v", got, want)
	}
}

func BenchmarkGeneratorNext32(b *testing.B) {
	bw := uniformEnv(32, 1)
	g := NewGenerator(bw, Config{BThres: 2.5, TThres: 8}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextActive(i, nil)
	}
}
