package gossip

import (
	"fmt"
	"slices"
	"testing"

	"sapspsgd/internal/fleettrace"
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

// coverage counts the planner regimes a lockstep run went through: forced
// rounds, rounds in which a maxMatch call skipped the augmentation (its seed
// left at most one live vertex free), and rounds in which one ran it.
type coverage struct{ forced, elided, augmented int }

func (c *coverage) add(o coverage) {
	c.forced += o.forced
	c.elided += o.elided
	c.augmented += o.augmented
}

// runPair drives the sparse Generator and the dense ReferenceGenerator in
// lockstep and fails on the first diverging round. Returns the regimes
// covered.
func runPair(t *testing.T, bw *netsim.Bandwidth, cfg Config, seed uint64, rounds int, churn bool) coverage {
	t.Helper()
	sparse := NewGenerator(bw, cfg, seed)
	dense := NewReferenceGenerator(bw, cfg, seed)
	var active []bool
	ar := rng.New(seed).Derive(0xac7e)
	var cov coverage
	for round := 0; round < rounds; round++ {
		if churn {
			active = churnMask(bw.N, ar, active)
		}
		elided, augmented := sparse.elided, sparse.augmented
		rs := sparse.NextActive(round, active)
		rd := dense.NextActive(round, active)
		if rs.Forced != rd.Forced {
			t.Fatalf("round %d (cfg %+v churn %v): forced sparse=%v dense=%v", round, cfg, churn, rs.Forced, rd.Forced)
		}
		if !slices.Equal(rs.Match, rd.Match) {
			t.Fatalf("round %d (cfg %+v churn %v): matchings diverge\nsparse %v\ndense  %v", round, cfg, churn, rs.Match, rd.Match)
		}
		if rs.Forced {
			cov.forced++
		}
		if sparse.elided > elided {
			cov.elided++
		}
		if sparse.augmented > augmented {
			cov.augmented++
		}
	}
	return cov
}

// TestSparseGeneratorBitIdenticalToReference is the tentpole equivalence
// property: the sparse planner's matching sequence is bit-identical to the
// retained dense formulation for N ∈ {8, 63, 64, 512} across ≥ 5 seeds and
// on the saps512 workload's complete environment, with and without churn.
// The sweep demonstrably covers forced-connectivity rounds at every N, and
// on every complete environment both sides of the dead-draw rule: rounds
// whose augmentation was skipped and rounds where it ran. (The degree-8
// seed leaves about a tenth of the fleet free, so it always augments.)
func TestSparseGeneratorBitIdenticalToReference(t *testing.T) {
	check := func(what string, cov coverage, complete bool) {
		t.Helper()
		if cov.forced == 0 {
			t.Fatalf("%s: no forced rounds covered — tighten the configs", what)
		}
		if complete && (cov.elided == 0 || cov.augmented == 0) {
			t.Fatalf("%s: %d rounds skipped the augmentation and %d ran it, want both", what, cov.elided, cov.augmented)
		}
	}
	rounds512 := 20
	if testing.Short() {
		rounds512 = 8
	}
	for _, n := range []int{8, 63, 64, 512} {
		rounds := 40
		if n == 512 {
			rounds = rounds512
		}
		var cov coverage
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
				cov.add(runPair(t, bw, cfg, seed, rounds, false))
				cov.add(runPair(t, bw, cfg, seed, rounds, true))
			}
		}
		check(fmt.Sprintf("n=%d", n), cov, n <= 64)
	}

	// saps512: the complete 512 environment under the workload's config,
	// where the greedy seed is usually perfect. TThres 1 forces every
	// round, and over the complete graph each of those matches all ~130k
	// links: a few rounds of it cover the forced regime.
	var cov coverage
	seeds := []uint64{7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		bw := netsim.RandomUniform(512, 0.5, 5, rng.New(seed))
		for _, churn := range []bool{false, true} {
			cov.add(runPair(t, bw, plannerConfig, seed, rounds512, churn))
			cov.add(runPair(t, bw, Config{BThres: 1, TThres: 1}, seed, 2, churn))
		}
	}
	check("saps512", cov, true)
}

// TestGeneratorRejectsDecreasingRounds documents the sparse planner's one
// behavioral restriction: eviction makes round generation order-dependent,
// so going backwards panics instead of silently mis-planning.
func TestGeneratorRejectsDecreasingRounds(t *testing.T) {
	bw := netsim.RandomUniform(8, 1, 5, rng.New(1))
	g := NewGenerator(bw, Config{TThres: 3}, 7)
	g.NextActive(5, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing round did not panic")
		}
	}()
	g.NextActive(4, nil)
}

// LastUsed exposes R[i][j] to the tests. Unlike the dense reference, entries
// that fell out of the TThres recency window read as -1: an expired timestamp
// and a never-used edge are indistinguishable, which is exactly the
// distinction Algorithm 3 never needs.
func (g *Generator) LastUsed(i, j int) int {
	if last, ok := g.lastUsed[edgeKey(i, j)]; ok {
		return last
	}
	return -1
}

// TestGeneratorLastUsedWindow pins the sparse LastUsed semantics: stamps are
// visible inside the TThres window and read -1 once evicted.
func TestGeneratorLastUsedWindow(t *testing.T) {
	bw := netsim.RandomUniform(8, 1, 5, rng.New(3))
	g := NewGenerator(bw, Config{TThres: 3}, 11)
	r := g.NextActive(0, nil)
	u := slices.IndexFunc(r.Match, func(p int) bool { return p >= 0 })
	if u < 0 {
		t.Fatal("no pairs matched")
	}
	v := r.Match[u]
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

// keptCase is one environment the kept B* list is checked over: a clock the
// lockstep run ticks before every round, built afresh for each config, and
// the membership of each round.
type keptCase struct {
	name   string
	env    func() *netsim.RoundEnv
	active func(round int) []bool
}

// blockChurn returns a membership that holds each set for four rounds and
// cycles through everyone (nil), one fixed partial set and a fresh partial
// set per block, so the kept list is both reused and invalidated, between
// everyone and a partial set and between two partial sets.
func blockChurn(n int, seed uint64) func(int) []bool {
	r := rng.New(seed).Derive(0xb10c)
	fixed := slices.Clone(churnMask(n, r, nil))
	var fresh []bool
	return func(round int) []bool {
		switch block := round / 4; block % 3 {
		case 0:
			return nil
		case 1:
			return fixed
		default:
			if round%4 == 0 {
				fresh = churnMask(n, r, fresh)
			}
			return fresh
		}
	}
}

// traceMults is a fleet trace's multiplier function over n ≥ 4 nodes: three
// nodes step their uplinks every few rounds, under hold interpolation.
func traceMults(t *testing.T, n int) func(int, []float64) []float64 {
	t.Helper()
	tr, err := fleettrace.Parse([]byte(fleettrace.Header + "\n0,1,0.25,\n3,1,1,\n5,2,0.5,\n7,1,0.125,\n9,2,2,\n12,1,1,\n13,3,0.3,\n"))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := fleettrace.NewReplay(tr, n, fleettrace.InterpHold)
	if err != nil {
		t.Fatal(err)
	}
	return rp.Multipliers
}

// TestKeptCandidatesBitIdenticalToReference is the stale-cache gate for the
// B* list a Generator keeps across rounds: in lockstep with the dense
// reference, which walks the environment every round, it must never outlive
// the environment or the active set it was built over. The cases are a
// jittered RoundEnv and a fleet-trace multiplier env, both rewritten by
// every Tick, and a fixed environment, under block churn and under
// everyone, across equivConfigs' forced and connected rounds. A rewritten
// environment must rebuild the list every connected round; the fixed one
// must both reuse it and rebuild it.
func TestKeptCandidatesBitIdenticalToReference(t *testing.T) {
	const n, rounds = 48, 48
	base := netsim.RandomUniform(n, 0.5, 5, rng.New(3))
	mults := traceMults(t, n)
	everyone := func(int) []bool { return nil }
	for seed := uint64(1); seed <= 3; seed++ {
		jitter := func() *netsim.RoundEnv { return netsim.NewRoundEnv(base, 0.3, seed, nil) }
		trace := func() *netsim.RoundEnv { return netsim.NewRoundEnv(base, 0, 0, mults) }
		fixed := func() *netsim.RoundEnv { return netsim.NewRoundEnv(base, 0, 0, nil) }
		for _, c := range []keptCase{
			{"jitter", jitter, blockChurn(n, seed)},
			{"jitter-everyone", jitter, everyone},
			{"trace", trace, blockChurn(n, seed)},
			{"fixed", fixed, blockChurn(n, seed)},
			{"fixed-everyone", fixed, everyone},
		} {
			t.Run(fmt.Sprintf("%s_seed%d", c.name, seed), func(t *testing.T) { checkKept(t, c, base, seed, rounds) })
		}
	}
}

// checkKept runs one keptCase in lockstep with the dense reference under
// every equivConfigs entry and checks the B* build count.
func checkKept(t *testing.T, c keptCase, base *netsim.Bandwidth, seed uint64, rounds int) {
	var forced, connected, builds int
	// Jitter and a trace rewrite a copy of base in place every round;
	// without either the clock hands out base itself.
	rewrites := c.env().Current() != base
	for _, cfg := range equivConfigs {
		env := c.env()
		sparse := NewGenerator(env.Current(), cfg, seed)
		dense := NewReferenceGenerator(env.Current(), cfg, seed)
		for round := 0; round < rounds; round++ {
			env.Tick(round)
			active := c.active(round)
			rs := sparse.NextActive(round, active)
			rd := dense.NextActive(round, active)
			if rs.Forced != rd.Forced || !slices.Equal(rs.Match, rd.Match) {
				t.Fatalf("cfg %+v round %d: sparse %v (forced %v), dense %v (forced %v)",
					cfg, round, rs.Match, rs.Forced, rd.Match, rd.Forced)
			}
			if rs.Forced {
				forced++
			} else {
				connected++
			}
		}
		builds += sparse.builds
	}
	switch {
	case forced == 0:
		t.Fatal("no forced rounds covered")
	case rewrites && builds != connected:
		t.Fatalf("%d B* builds over %d connected rounds of a rewritten environment", builds, connected)
	case !rewrites && (builds < 2 || builds >= connected):
		t.Fatalf("%d B* builds over %d connected rounds, want the list both kept and rebuilt", builds, connected)
	}
}
