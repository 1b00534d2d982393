package algos

import (
	"math"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/netsim"
)

func TestSAPSChurnConverges(t *testing.T) {
	const n, rounds = 8, 250
	fc, bw, va := testSetup(t, n)
	alg := newSAPSFamily("saps", fc, bw, sapsConfig(n), Membership{Churn: &ChurnModel{
		LeaveProb: 0.15,
		JoinProb:  0.5,
		MinActive: 4,
	}})
	led := netsim.NewLedger(bw)
	// Churn actually happens: some round has fewer than n active workers.
	sawChurn := false
	for r := 0; r < rounds; r++ {
		a := planned(alg.Round(r, led).Plan, n)
		if a < n {
			sawChurn = true
		}
		if a < 4 {
			t.Fatalf("active count %d below MinActive", a)
		}
	}
	if acc := meanAcc(t, alg, va); acc < 0.7 {
		t.Fatalf("churn accuracy %v, want >= 0.7", acc)
	}
	if !led.ConservationOK() {
		t.Fatal("conservation")
	}
	if !sawChurn {
		t.Fatal("no churn occurred with LeaveProb=0.15 over 250 rounds")
	}
}

func TestSAPSChurnMatchesOnlyActive(t *testing.T) {
	const n = 8
	fc, bw, _ := testSetup(t, n)
	alg := newSAPSFamily("saps", fc, bw, sapsConfig(n), Membership{Churn: &ChurnModel{
		LeaveProb: 0.4,
		JoinProb:  0.3,
		MinActive: 2,
	}})
	led := netsim.NewLedger(bw)
	for r := 0; r < 60; r++ {
		// Internal invariant is checked indirectly: MergePeer panics on
		// mismatched payloads, and the Step would have paniced if an
		// inactive worker had been matched (its payload is nil).
		if count := planned(alg.Round(r, led).Plan, n); count < 2 {
			t.Fatalf("round %d: %d active", r, count)
		}
	}
}

// planned is the number of the n workers the plan has present.
func planned(p core.RoundPlan, n int) int {
	if p.Active == nil {
		return n
	}
	return countActive(p.Active)
}

func TestChurnModelValidation(t *testing.T) {
	fc, bw, _ := testSetup(t, 4)
	bads := []ChurnModel{
		{LeaveProb: -0.1, JoinProb: 0.5, MinActive: 2},
		{LeaveProb: 1.0, JoinProb: 0.5, MinActive: 2},
		{LeaveProb: 0.1, JoinProb: 0, MinActive: 2},
		{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 1},
		{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 99},
	}
	for i, cm := range bads {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad churn model %d accepted", i)
				}
			}()
			newSAPSFamily("saps", fc, bw, sapsConfig(4), Membership{Churn: &cm})
		}()
	}
}

func TestPSPSGDLearnsAndAccountsServerTraffic(t *testing.T) {
	const n, rounds = 8, 200
	fc, bw, va := testSetup(t, n)
	alg := NewPSPSGD(fc, bw)
	acc, led := runRounds(t, alg, bw, va, rounds)
	if acc < 0.8 {
		t.Fatalf("PS-PSGD accuracy %v", acc)
	}
	// Server carries 2·N·n values per round (Table I row 1).
	dim := alg.Models()[0].ParamCount()
	want := int64(rounds) * int64(n) * 2 * int64(dim) * 4
	if got := led.ServerBytes(); got != want {
		t.Fatalf("server bytes %d, want %d", got, want)
	}
}

func TestQSGDPSGDLearns(t *testing.T) {
	const n, rounds = 6, 250
	fc, bw, va := testSetup(t, n)
	alg := NewQSGDPSGD(fc, 4)
	acc, _ := runRounds(t, alg, bw, va, rounds)
	if acc < 0.7 {
		t.Fatalf("QSGD-PSGD accuracy %v", acc)
	}
}

func TestQSGDTrafficBetweenDenseAndMask(t *testing.T) {
	const n, rounds = 6, 20
	fcQ, bwQ, _ := testSetup(t, n)
	q := NewQSGDPSGD(fcQ, 1)
	ledQ := netsim.NewLedger(bwQ)
	for r := 0; r < rounds; r++ {
		q.Step(r, ledQ)
	}
	fcP, bwP, _ := testSetup(t, n)
	p := NewPSGD(fcP)
	ledP := netsim.NewLedger(bwP)
	for r := 0; r < rounds; r++ {
		p.Step(r, ledP)
	}
	fcS, bwS, _ := testSetup(t, n)
	s := NewSAPS(fcS, bwS, sapsConfig(n))
	ledS := netsim.NewLedger(bwS)
	for r := 0; r < rounds; r++ {
		s.Step(r, ledS)
	}
	// QSGD is an all-gather, so with n-1 peers it may exceed dense
	// ring-all-reduce per worker; but per payload it must be well under a
	// dense payload and well above SAPS's masked one.
	perPeerQ := ledQ.MeanWorkerTrafficMB() / float64(rounds) / float64(n-1)
	denseMB := float64(q.Models()[0].ParamCount()) * 4 / 1e6
	if perPeerQ >= denseMB {
		t.Fatalf("QSGD payload %v MB not below dense %v MB", perPeerQ, denseMB)
	}
	if ledS.MeanWorkerTrafficMB() >= ledQ.MeanWorkerTrafficMB() {
		t.Fatalf("SAPS traffic %v not below QSGD %v", ledS.MeanWorkerTrafficMB(), ledQ.MeanWorkerTrafficMB())
	}
	if math.IsNaN(perPeerQ) {
		t.Fatal("NaN traffic")
	}
}
