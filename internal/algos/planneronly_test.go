package algos

import (
	"slices"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
)

// chargeLog is a ledger that writes down every call the driver makes, in
// order.
type chargeLog struct {
	calls []charge
}

type charge struct {
	i, j       int
	send, recv int64
	end        bool
}

func (l *chargeLog) Exchange(i, j int, send, recv int64) {
	l.calls = append(l.calls, charge{i: i, j: j, send: send, recv: recv})
}

func (l *chargeLog) EndRound() float64 {
	l.calls = append(l.calls, charge{end: true})
	return 0
}

// TestPlannerOnlyChargesWhatTheFleetCharges: with no workers under it, the
// planner-only control must hand engine.Driver exactly the report a saps fleet
// folds for the same plan — so the ledger sees the same Exchange calls, in the
// same ascending pair order with the same mask-sized payloads, and the round
// stats the same plan and payload (loss aside) — for Algorithm 3's planner and RandomChoose's.
// An odd fleet leaves one worker unmatched every round.
func TestPlannerOnlyChargesWhatTheFleetCharges(t *testing.T) {
	const n, rounds = 7, 12
	fc, bw, _ := testSetup(t, n)
	cfg := sapsConfig(n)
	dim := fc.Factory().ParamCount()
	cases := []struct {
		name    string
		fleet   *InProc
		planner engine.Planner
	}{
		{"saps", NewSAPS(fc, bw, cfg), core.NewCoordinator(bw, cfg)},
		{"randomchoose", newSAPSFamily("randomchoose", fc, bw, cfg, Membership{}), NewRandomPlanner(n, cfg.Seed)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.fleet.Close()
			alone := NewPlannerOnly(tc.planner, dim, cfg.Compression)
			defer alone.Close()
			var want, got chargeLog
			for r := 0; r < rounds; r++ {
				w, g := tc.fleet.Round(r, &want), alone.Round(r, &got)
				if g.Loss != 0 {
					t.Fatalf("round %d: planner-only loss %v, want 0", r, g.Loss)
				}
				if !slices.Equal(g.Plan.Peer, w.Plan.Peer) || !slices.Equal(g.Plan.Active, w.Plan.Active) ||
					g.Plan.Forced != w.Plan.Forced || g.PayloadLen != w.PayloadLen || g.Bytes != w.Bytes {
					t.Fatalf("round %d stats: got %+v, fleet %+v", r, g, w)
				}
			}
			if len(want.calls) <= rounds {
				t.Fatalf("the fleet charged nothing: %v", want.calls)
			}
			if !slices.Equal(got.calls, want.calls) {
				t.Fatalf("ledger calls differ:\n got %v\nwant %v", got.calls, want.calls)
			}
			if alone.Models() != nil {
				t.Errorf("planner-only run has models: %v", alone.Models())
			}
		})
	}
}
