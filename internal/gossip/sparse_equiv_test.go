package gossip

import (
	"slices"
	"testing"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
)

// equivConfigs provokes every planner regime: TThres=1 keeps the RC graph
// permanently empty (every round forced), the high-BThres/short-window entry
// mixes connected and forced rounds, and the last entry stays connected.
var equivConfigs = []Config{
	{BThres: 0, TThres: 1},
	{BThres: 4.5, TThres: 3},
	{BThres: 1, TThres: 10},
}

// churnMask draws one membership vector per round (≥ 2 active), shared by
// both generators so their active views agree.
func churnMask(n int, r *rng.Source, prev []bool) []bool {
	if prev == nil {
		prev = make([]bool, n)
	}
	for {
		count := 0
		for i := range prev {
			prev[i] = r.Float64() < 0.8
			if prev[i] {
				count++
			}
		}
		if count >= 2 {
			return prev
		}
	}
}

// runPair drives the sparse Generator and the dense ReferenceGenerator in
// lockstep and fails on the first diverging round. Returns the number of
// forced rounds observed.
func runPair(t *testing.T, bw *netsim.Bandwidth, cfg Config, seed uint64, rounds int, churn bool) int {
	t.Helper()
	sparse := NewGenerator(bw, cfg, seed)
	dense := NewReferenceGenerator(bw, cfg, seed)
	var active []bool
	ar := rng.New(seed).Derive(0xac7e)
	forced := 0
	for round := 0; round < rounds; round++ {
		if churn {
			active = churnMask(bw.N, ar, active)
		}
		rs := sparse.NextActive(round, active)
		rd := dense.NextActive(round, active)
		if rs.Forced != rd.Forced {
			t.Fatalf("round %d (cfg %+v churn %v): forced sparse=%v dense=%v", round, cfg, churn, rs.Forced, rd.Forced)
		}
		if !slices.Equal(rs.Match, rd.Match) {
			t.Fatalf("round %d (cfg %+v churn %v): matchings diverge\nsparse %v\ndense  %v", round, cfg, churn, rs.Match, rd.Match)
		}
		if rs.Forced {
			forced++
		}
	}
	return forced
}

// TestSparseGeneratorBitIdenticalToReference is the tentpole equivalence
// property: the sparse planner's matching sequence is bit-identical to the
// retained dense formulation for N ∈ {8, 64, 512} across ≥ 5 seeds, with and
// without churn, and the sweep demonstrably covers forced-connectivity
// rounds at every N.
func TestSparseGeneratorBitIdenticalToReference(t *testing.T) {
	sizes := []int{8, 64, 512}
	for _, n := range sizes {
		rounds := 40
		if n == 512 {
			rounds = 20
			if testing.Short() {
				rounds = 8
			}
		}
		forcedTotal := 0
		for seed := uint64(1); seed <= 5; seed++ {
			// Small fleets use the paper-style complete environment. At 512
			// a complete graph would make every TThres=1 round match over
			// ~130k candidate edges (the test ran minutes); a degree-bounded
			// topology — densified so the dense reference sees the identical
			// links — keeps all planner regimes while staying fast.
			var bw *netsim.Bandwidth
			if n <= 64 {
				bw = netsim.RandomUniform(n, 0.5, 5, rng.New(seed))
			} else {
				sp := netsim.SparseRandomUniform(n, 8, 0.5, 5, rng.New(seed))
				raw := make([][]float64, n)
				for i := range raw {
					raw[i] = make([]float64, n)
					for j := 0; j < n; j++ {
						raw[i][j] = sp.MBps(i, j)
					}
				}
				bw = netsim.NewBandwidth(raw)
			}
			for _, cfg := range equivConfigs {
				forcedTotal += runPair(t, bw, cfg, seed, rounds, false)
				forcedTotal += runPair(t, bw, cfg, seed, rounds, true)
			}
		}
		if forcedTotal == 0 {
			t.Fatalf("n=%d: no forced rounds covered — tighten the configs", n)
		}
	}
}

// TestGeneratorRejectsDecreasingRounds documents the sparse planner's one
// behavioral restriction: eviction makes round generation order-dependent,
// so going backwards panics instead of silently mis-planning.
func TestGeneratorRejectsDecreasingRounds(t *testing.T) {
	bw := netsim.RandomUniform(8, 1, 5, rng.New(1))
	g := NewGenerator(bw, Config{TThres: 3}, 7)
	g.Next(5)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing round did not panic")
		}
	}()
	g.Next(4)
}

// TestGeneratorLastUsedWindow pins the sparse LastUsed semantics: stamps are
// visible inside the TThres window and read -1 once evicted.
func TestGeneratorLastUsedWindow(t *testing.T) {
	bw := netsim.RandomUniform(8, 1, 5, rng.New(3))
	g := NewGenerator(bw, Config{TThres: 3}, 11)
	r := g.Next(0)
	pairs := r.Match.Pairs()
	if len(pairs) == 0 {
		t.Fatal("no pairs matched")
	}
	u, v := pairs[0][0], pairs[0][1]
	if got := g.LastUsed(u, v); got != 0 {
		t.Fatalf("LastUsed = %d, want 0", got)
	}
	// Rounds 1..3 may re-stamp the pair; probe a fabricated stale edge
	// instead: an edge never matched always reads -1.
	var un, vn = -1, -1
	for i := 0; i < 8 && un == -1; i++ {
		for j := i + 1; j < 8; j++ {
			if r.Match[i] != j {
				un, vn = i, j
				break
			}
		}
	}
	if got := g.LastUsed(un, vn); got != -1 {
		t.Fatalf("never-used LastUsed = %d, want -1", got)
	}
	// March far past the window without re-matching (empty active set is
	// invalid; use all-inactive-but-two instead) — after expiry the stamp
	// reads -1 again.
	quiet := make([]bool, 8)
	quiet[un], quiet[vn] = true, true
	for round := 1; round <= 6; round++ {
		g.NextActive(round, quiet)
	}
	if got := g.LastUsed(u, v); got != -1 && got != 0 {
		t.Fatalf("expired LastUsed = %d, want -1", got)
	}
	if u != un && u != vn && v != un && v != vn {
		if got := g.LastUsed(u, v); got != -1 {
			t.Fatalf("expired LastUsed = %d, want -1 (round 0 stamp left the TThres=3 window)", got)
		}
	}
}
