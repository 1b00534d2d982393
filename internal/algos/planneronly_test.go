package algos

import (
	"slices"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/trace"
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
// same ascending pair order with the same mask-sized payloads, and the trace
// the same rows (loss aside) — for Algorithm 3's planner and RandomChoose's.
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
			alone := NewPlannerOnly(tc.planner, bw, dim, cfg.Compression)
			defer alone.Close()
			var want, got chargeLog
			wantTrace, gotTrace := trace.NewRecorder(), trace.NewRecorder()
			tc.fleet.SetTrace(wantTrace)
			alone.SetTrace(gotTrace)
			for r := 0; r < rounds; r++ {
				tc.fleet.Step(r, &want)
				if loss := alone.Step(r, &got); loss != 0 {
					t.Fatalf("round %d: planner-only loss %v, want 0", r, loss)
				}
			}
			if len(want.calls) <= rounds {
				t.Fatalf("the fleet charged nothing: %v", want.calls)
			}
			if !slices.Equal(got.calls, want.calls) {
				t.Fatalf("ledger calls differ:\n got %v\nwant %v", got.calls, want.calls)
			}
			if !slices.Equal(alone.ActiveHistory(), tc.fleet.ActiveHistory()) {
				t.Errorf("active history %v, fleet %v", alone.ActiveHistory(), tc.fleet.ActiveHistory())
			}
			for r, ev := range gotTrace.Events() {
				w := wantTrace.Events()[r]
				if !slices.Equal(ev.Pairs, w.Pairs) || !slices.Equal(ev.PairMBps, w.PairMBps) ||
					ev.PayloadBytes != w.PayloadBytes || ev.Forced != w.Forced || ev.ActiveWorkers != w.ActiveWorkers {
					t.Fatalf("round %d trace: got %+v, fleet %+v", r, ev, w)
				}
			}
			if alone.Models() != nil {
				t.Errorf("planner-only run has models: %v", alone.Models())
			}
		})
	}
}
