package gossip

import (
	"testing"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
)

// diagnostics are the theory section's quantities for an environment and an
// Algorithm 3 configuration, measured over sampled gossip matchings.
type diagnostics struct {
	rho         float64 // second largest eigenvalue of the empirical E[WᵀW]
	mixingRate  float64 // Lemma 2's q + p·ρ² at mask keep-probability keepP
	meanMatched float64 // MB/s
	forced      int     // rounds where connectivity had to be restored
}

// diagnoseGossip samples `rounds` matchings from Algorithm 3 and computes
// the diagnostics matrix-free (ρ via RhoOfMatchings).
func diagnoseGossip(bw *netsim.Bandwidth, cfg Config, keepP float64, rounds int, seed uint64) diagnostics {
	gen := NewGenerator(bw, cfg, seed)
	ms := make([]graph.Matching, 0, rounds)
	var d diagnostics
	for t := 0; t < rounds; t++ {
		r := gen.NextActive(t, nil)
		ms = append(ms, r.Match)
		d.meanMatched += MeanMatchedBandwidth(r.Match, bw) / float64(rounds)
		if r.Forced {
			d.forced++
		}
	}
	d.rho = RhoOfMatchings(ms, 400)
	d.mixingRate = MixingRate(keepP, d.rho)
	return d
}

func TestGossipDiagnosticsSane(t *testing.T) {
	d := diagnoseGossip(netsim.FourteenCities(), Config{BThres: 2, TThres: 5}, 0.01, 100, 3)
	if d.rho <= 0 || d.rho >= 1 {
		t.Fatalf("rho = %v, want (0,1)", d.rho)
	}
	if d.mixingRate <= 0.98 || d.mixingRate >= 1 {
		// keepP=0.01 → mixing rate just below 1.
		t.Fatalf("mixing rate = %v", d.mixingRate)
	}
	if d.meanMatched <= 0 {
		t.Fatalf("matched bandwidth %v", d.meanMatched)
	}
}

func TestRecencyWindowTradeoff(t *testing.T) {
	// A tighter recency window (small TThres) forces reconnection more
	// often and keeps ρ bounded; both configurations must certify
	// Assumption 3 (ρ < 1).
	bw := netsim.FourteenCities()
	small := diagnoseGossip(bw, Config{BThres: 5, TThres: 2}, 0.01, 150, 7)
	large := diagnoseGossip(bw, Config{BThres: 5, TThres: 20}, 0.01, 150, 7)
	if large.forced > small.forced {
		t.Fatalf("larger window forced reconnection more often (%d vs %d)", large.forced, small.forced)
	}
	for _, d := range []diagnostics{small, large} {
		if d.rho <= 0 || d.rho >= 1 {
			t.Fatalf("rho = %v violates Assumption 3", d.rho)
		}
	}
}

func TestTightRecencyWindowStillMixes(t *testing.T) {
	// Regression test for a real failure mode found during this
	// reproduction: with TThres=2 a purely deterministic bandwidth-greedy
	// matcher alternates between two fixed matchings whose union is
	// disconnected, giving rho(E[WᵀW]) exactly 1 (no consensus possible).
	// The randomized greedy (bucketed weights + random skips) must keep
	// rho strictly below 1 even at the tightest window.
	d := diagnoseGossip(netsim.FourteenCities(), Config{BThres: 2, TThres: 2}, 0.01, 300, 7)
	if d.rho >= 1-1e-6 {
		t.Fatalf("rho = %v at TThres=2 — matching randomization regressed", d.rho)
	}
}
