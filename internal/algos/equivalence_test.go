package algos

import (
	"testing"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
)

// allBaselineBuilders constructs every algorithm of the comparison (the
// seven of the paper plus the QSGD and RandomChoose ablations) over a shared
// tiny task.
func allBaselineBuilders(n int) []struct {
	name  string
	build func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm
} {
	return []struct {
		name  string
		build func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm
	}{
		{"PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewPSGD(fc) }},
		{"TopK-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewTopKPSGD(fc, 20) }},
		{"QSGD-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewQSGDPSGD(fc, 4) }},
		{"FedAvg", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewFedAvg(fc, bw, 0.5, 2) }},
		{"S-FedAvg", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewSFedAvg(fc, bw, 0.5, 2, 10) }},
		{"D-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewDPSGD(fc) }},
		{"DCD-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewDCDPSGD(fc, 4) }},
		{"PS-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewPSPSGD(fc, bw) }},
		{"SAPS-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewSAPS(fc, bw, sapsConfig(8)) }},
		{"RandomChoose", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm {
			return newSAPSFamily("randomchoose", fc, bw, sapsConfig(8), Membership{})
		}},
	}
}

// TestBackendEquivalenceAllBaselines is the backend contract extended to
// every baseline: the identical algorithm stepped against the pure-counting
// ledger (memtransport semantics) and against the bandwidth-accounted netsim
// ledger (the simulated backend) must produce bit-identical model
// trajectories and byte-identical per-worker traffic — the ledger is an
// observer, never an input.
func TestBackendEquivalenceAllBaselines(t *testing.T) {
	const n, rounds = 8, 6
	for _, b := range allBaselineBuilders(n) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			fcA, bw, _ := testSetup(t, n)
			fcB, _, _ := testSetup(t, n)
			algA := b.build(fcA, bw) // counting ledger (memtransport)
			algB := b.build(fcB, bw) // netsim ledger (simulated bandwidth)
			ledA := &engine.CountingLedger{}
			ledB := netsim.NewLedger(bw)
			for r := 0; r < rounds; r++ {
				algA.Step(r, ledA)
				algB.Step(r, ledB)
				pa, pb := algA.Models(), algB.Models()
				if len(pa) != len(pb) {
					t.Fatalf("round %d: %d vs %d models", r, len(pa), len(pb))
				}
				for m := range pa {
					va, vb := pa[m].FlatParams(nil), pb[m].FlatParams(nil)
					for j := range va {
						if va[j] != vb[j] {
							t.Fatalf("round %d model %d param %d: counting %v != netsim %v", r, m, j, va[j], vb[j])
						}
					}
				}
			}
			for i := 0; i < n; i++ {
				sa, ra := ledA.WorkerBytes(i)
				sb, rb := ledB.WorkerBytes(i)
				if sa != sb || ra != rb {
					t.Fatalf("worker %d bytes: counting %d/%d != netsim %d/%d", i, sa, ra, sb, rb)
				}
			}
			// Hub algorithms route the server's side through netsim's
			// server account; the counting ledger tracks it as rank n
			// (serverless algorithms have zeros on both sides).
			ss, sr := ledA.WorkerBytes(n)
			if got := ledB.ServerBytes(); got != ss+sr {
				t.Fatalf("server bytes: counting %d != netsim %d", ss+sr, got)
			}
			if !ledB.ConservationOK() {
				t.Fatalf("netsim ledger conservation violated")
			}
			if ledA.TotalBytes() == 0 {
				t.Fatalf("no traffic accounted")
			}
			if ledB.TotalTime() <= 0 {
				t.Fatalf("no simulated communication time accrued")
			}
		})
	}
}

// TestPSGDChargesBothDirections is the regression test for the seed's
// asymmetric ring accounting (it charged recvBytes=0 on every ring link):
// with measured codec bytes, every PSGD worker's received volume must equal
// its sent volume, and both must be positive.
func TestPSGDChargesBothDirections(t *testing.T) {
	const n, rounds = 8, 3
	fc, bw, _ := testSetup(t, n)
	alg := NewPSGD(fc)
	led := netsim.NewLedger(bw)
	counting := &engine.CountingLedger{}
	for r := 0; r < rounds; r++ {
		alg.Step(r, led)
	}
	alg2 := NewPSGD(fc)
	for r := 0; r < rounds; r++ {
		alg2.Step(r, counting)
	}
	for i := 0; i < n; i++ {
		sent, recv := led.WorkerBytes(i)
		if sent == 0 || recv == 0 {
			t.Fatalf("worker %d: sent %d recv %d — a direction went uncharged", i, sent, recv)
		}
		if sent != recv {
			t.Fatalf("worker %d: sent %d != recv %d — all-reduce volume must be symmetric", i, sent, recv)
		}
	}
	if !led.ConservationOK() {
		t.Fatal("ledger conservation violated")
	}
}
