package gossip

import (
	"slices"
	"testing"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/rng"
)

// TestPlannerMetricsObserveWithoutPerturbing runs one generator with the
// metrics sink on beside one with it off: the matchings must stay identical
// round for round, and the planner family must report what happened.
func TestPlannerMetricsObserveWithoutPerturbing(t *testing.T) {
	bw := netsim.SparseRandomUniform(256, 6, 0.5, 5, rng.New(5))
	cfg := Config{BThres: 4.5, TThres: 3} // mixes connected and forced rounds
	plain := NewGenerator(bw, cfg, 9)

	m := obs.New()
	obs.Enable(m)
	defer obs.Enable(nil)
	timed := NewGenerator(bw, cfg, 9)

	const rounds = 30
	forced, pairs := 0, 0
	for round := 0; round < rounds; round++ {
		want, got := plain.NextActive(round, nil), timed.NextActive(round, nil)
		if want.Forced != got.Forced || !slices.Equal(want.Match, got.Match) {
			t.Fatalf("round %d: matching changed with metrics on", round)
		}
		if got.Forced {
			forced++
		}
		pairs = got.Match.Size()
	}
	if forced == 0 || forced == rounds {
		t.Fatalf("%d of %d rounds forced — the config should mix both kinds", forced, rounds)
	}
	p := m.Planner
	if got := p.PlanSeconds.Count(); got != rounds {
		t.Fatalf("plan_seconds observed %d rounds, want %d", got, rounds)
	}
	if got := p.ForcedRoundsTotal.Value(); got != int64(forced) {
		t.Fatalf("forced_rounds_total = %d, want %d", got, forced)
	}
	if got := p.MatchedPairs.Value(); got != int64(pairs) {
		t.Fatalf("matched_pairs = %d, want %d", got, pairs)
	}
	if free := p.FreeAfterGreedy.Value(); free < 0 || free > 256 {
		t.Fatalf("free_after_greedy = %d, outside 0..256", free)
	}
	if p.GreedySecondsTotal.Value() <= 0 || p.AugmentSecondsTotal.Value() <= 0 ||
		p.GreedySecondsTotal.Value()+p.AugmentSecondsTotal.Value() > p.PlanSeconds.Sum() {
		t.Fatalf("greedy %v s + augment %v s should be positive parts of plan %v s",
			p.GreedySecondsTotal.Value(), p.AugmentSecondsTotal.Value(), p.PlanSeconds.Sum())
	}
}

// TestFreeAfterGreedyCountsLiveWorkers: free_after_greedy counts the active
// workers the greedy seed left unmatched, not the absent ones. Half of a
// 64-worker complete environment is active and every link clears BThres, so
// the greedy pass pairs all 32 and the gauge must read 0.
func TestFreeAfterGreedyCountsLiveWorkers(t *testing.T) {
	const n = 64
	m := obs.New()
	obs.Enable(m)
	defer obs.Enable(nil)
	g := NewGenerator(netsim.RandomUniform(n, 0.5, 5, rng.New(2)), Config{BThres: 0, TThres: 3}, 4)
	active := make([]bool, n)
	for i := 0; i < n; i += 2 {
		active[i] = true
	}
	r := g.NextActive(0, active)
	if got := r.Match.Size(); got != n/4 {
		t.Fatalf("%d pairs over %d active workers, want every one matched", got, n/2)
	}
	if free := m.Planner.FreeAfterGreedy.Value(); free != 0 {
		t.Fatalf("free_after_greedy = %d with every active worker matched, want 0", free)
	}
}
