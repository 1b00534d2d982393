package gossip

import (
	"testing"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
)

// plannerShapes are the benchmark workloads' planner environments:
// plan10k's sparse degree-8 fleet of 10 000 and saps512's complete 512, both
// with uniform 0.5–5 MB/s links, BThres 1 and TThres 10. n scales plan10k
// down for the allocation gate.
var plannerShapes = []struct {
	name  string
	build func(n int) *netsim.Bandwidth
	n     int
	seed  uint64
}{
	{"plan10k", func(n int) *netsim.Bandwidth { return netsim.SparseRandomUniform(n, 8, 0.5, 5, rng.New(42)) }, 10000, 42},
	{"saps512", func(n int) *netsim.Bandwidth { return netsim.RandomUniform(n, 0.5, 5, rng.New(7)) }, 512, 7},
}

// plannerConfig is both workloads' Algorithm 3 configuration.
var plannerConfig = Config{BThres: 1, TThres: 10}

// TestNextActiveSteadyStateAllocs is the planner's allocation gate: past the
// virtually-complete window (so the RC graph, its FIFO and the timestamp map
// are all live), a round allocates the matchings it returns plus occasional
// FIFO/map/adjacency growth — not a slice per vertex per pass — on both
// planner shapes (plan10k at 2048 vertices).
func TestNextActiveSteadyStateAllocs(t *testing.T) {
	for _, s := range plannerShapes {
		n := min(s.n, 2048)
		g := NewGenerator(s.build(n), plannerConfig, s.seed)
		round := 0
		for ; round < 3*plannerConfig.TThres; round++ {
			g.NextActive(round, nil)
		}
		allocs := testing.AllocsPerRun(50, func() {
			g.NextActive(round, nil)
			round++
		})
		if allocs > 8 {
			t.Fatalf("%s: steady-state NextActive allocates %.1f objects per round, want ≤ 8", s.name, allocs)
		}
	}
}

// BenchmarkNextActive times whole planning rounds on both planner shapes.
func BenchmarkNextActive(b *testing.B) {
	for _, s := range plannerShapes {
		b.Run(s.name, func(b *testing.B) {
			g := NewGenerator(s.build(s.n), plannerConfig, s.seed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.NextActive(i, nil)
			}
		})
	}
}
