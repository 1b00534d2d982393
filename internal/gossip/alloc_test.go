package gossip

import (
	"testing"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
)

// TestNextActiveSteadyStateAllocs is the planner's allocation gate: past the
// virtually-complete window (so the RC graph, its FIFO and the timestamp map
// are all live), a round on a sparse degree-8 fleet allocates the matchings
// it returns plus occasional FIFO/map/adjacency growth — not a slice per
// vertex per pass.
func TestNextActiveSteadyStateAllocs(t *testing.T) {
	const n, tThres = 2048, 10
	bw := netsim.SparseRandomUniform(n, 8, 0.5, 5, rng.New(42))
	g := NewGenerator(bw, Config{BThres: 1, TThres: tThres}, 42)
	round := 0
	for ; round < 3*tThres; round++ {
		g.Next(round)
	}
	allocs := testing.AllocsPerRun(50, func() {
		g.Next(round)
		round++
	})
	if allocs > 8 {
		t.Fatalf("steady-state NextActive allocates %.1f objects per round, want ≤ 8", allocs)
	}
}

// BenchmarkNextActive times whole planning rounds on the plan10k shape.
func BenchmarkNextActive(b *testing.B) {
	bw := netsim.SparseRandomUniform(10000, 8, 0.5, 5, rng.New(42))
	g := NewGenerator(bw, Config{BThres: 1, TThres: 10}, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(i)
	}
}
