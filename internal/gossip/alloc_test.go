package gossip

import (
	"testing"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
)

// plannerShapes are the benchmark workloads' planner environments, drawn as
// scenario.Spec.Env draws them (the spec seed's 0xba7d stream) and planned
// under the spec seed: plan10k's sparse degree-8 fleet of 10 000 and
// saps512's complete 512, both with uniform 0.5–5 MB/s links, BThres 1 and
// TThres 10. n scales plan10k down for the allocation gate.
var plannerShapes = []struct {
	name  string
	build func(n int) *netsim.Bandwidth
	n     int
	seed  uint64
}{
	{"plan10k", func(n int) *netsim.Bandwidth { return netsim.SparseRandomUniform(n, 8, 0.5, 5, envStream(42)) }, 10000, 42},
	{"saps512", func(n int) *netsim.Bandwidth { return netsim.RandomUniform(n, 0.5, 5, envStream(7)) }, 512, 7},
}

// envStream is the stream scenario.Spec.Env draws a spec's links from.
func envStream(seed uint64) *rng.Source { return rng.New(seed).Derive(0xba7d) }

// timedRounds is plan10k's timed pass at the committed -seconds 20: rounds
// 0–52 of a fresh planner, 44 of them forced (every round from 9 on).
const timedRounds = 53

// plannerConfig is both workloads' Algorithm 3 configuration.
var plannerConfig = Config{BThres: 1, TThres: 10}

// TestNextActiveSteadyStateAllocs is the planner's allocation gate: past the
// virtually-complete window (so the RC graph, its FIFO and the slot stamps
// are all live), a round allocates the one matching it returns — the
// lines-6–8 matching, the candidate words and both adjacencies reuse the
// generator's storage — on both planner shapes (plan10k at 2048 vertices).
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
		if allocs > 1 {
			t.Fatalf("%s: steady-state NextActive allocates %.1f objects per round, want ≤ 1", s.name, allocs)
		}
	}
}

// BenchmarkNextActive times whole planning rounds on both planner shapes,
// one generator running on as long as b.N asks, and plan10k's timed regime:
// a fresh generator through rounds 0–52, timed per pass.
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
	s := plannerShapes[0]
	b.Run(s.name+"-pass", func(b *testing.B) {
		bw := s.build(s.n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := NewGenerator(bw, plannerConfig, s.seed)
			for round := 0; round < timedRounds; round++ {
				g.NextActive(round, nil)
			}
		}
	})
}
