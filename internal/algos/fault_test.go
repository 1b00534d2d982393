package algos

import (
	"strings"
	"testing"

	"sapspsgd/internal/engine"
)

func validSchedule() FaultSchedule {
	return FaultSchedule{
		N:    6,
		Seed: 9,
		Events: []FaultEvent{
			{Rank: 2, Round: 3, RejoinAfter: 2},
			{Rank: 4, Round: 1, RejoinAfter: 0}, // never returns
		},
	}
}

func TestFaultScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FaultSchedule)
		want string
	}{
		{"rank out of range", func(s *FaultSchedule) { s.Events[0].Rank = 6 }, "rank 6 of 6"},
		{"negative round", func(s *FaultSchedule) { s.Events[0].Round = -1 }, "negative round"},
		{"overlapping windows", func(s *FaultSchedule) {
			s.Events = append(s.Events, FaultEvent{Rank: 2, Round: 4, RejoinAfter: 1})
		}, "overlapping fault windows for rank 2"},
		{"event after unbounded window", func(s *FaultSchedule) {
			s.Events = append(s.Events, FaultEvent{Rank: 4, Round: 9, RejoinAfter: 1})
		}, "overlapping fault windows for rank 4"},
		{"too few survivors", func(s *FaultSchedule) {
			s.N = 3
			s.Events = []FaultEvent{{Rank: 0, Round: 2, RejoinAfter: 3}, {Rank: 1, Round: 2, RejoinAfter: 2}}
		}, "leave 1 of 3 workers"},
		{"mortality probability", func(s *FaultSchedule) { s.Mortality = &FaultMortality{Prob: 1.2, MinAlive: 2} }, "mortality probability"},
		{"mortality min alive", func(s *FaultSchedule) { s.Mortality = &FaultMortality{Prob: 0.1, MinAlive: 1} }, "min_alive 1 of 6"},
		{"mortality floor eaten by crash windows", func(s *FaultSchedule) {
			// Two ranks concurrently crashed at round 3 while mortality may
			// have already culled the fleet to 3: worst case leaves 1.
			s.Mortality = &FaultMortality{Prob: 0.1, MinAlive: 3}
		}, "minus 2 concurrently crashed"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := validSchedule()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("validated a schedule with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	s := validSchedule()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestFaultProcessDeterministicMembership pins the process semantics: event
// windows open and close at the scheduled rounds, mortality deaths are
// permanent and identical across independently constructed processes, and
// the floor stops further deaths.
func TestFaultProcessDeterministicMembership(t *testing.T) {
	sched := validSchedule()
	sched.Mortality = &FaultMortality{Prob: 0.3, MinAlive: 4}
	p1, p2 := NewFaultProcess(sched), NewFaultProcess(sched)

	prevAlive := sched.N
	var everDead []bool
	for round := 0; round < 12; round++ {
		a1, a2 := p1.Step(round), p2.Step(round)
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("round %d rank %d: processes disagree", round, i)
			}
		}
		if everDead == nil {
			everDead = make([]bool, len(a1))
		}
		// Event semantics on rank 2: absent exactly for rounds 3 and 4.
		wantAbsent := round == 3 || round == 4
		if !a1[2] != wantAbsent && !mortalityDead(p1, 2) {
			t.Fatalf("round %d: rank 2 active=%v, want absent=%v", round, a1[2], wantAbsent)
		}
		// Rank 4 never returns after round 1.
		if round >= 1 && a1[4] {
			t.Fatalf("round %d: rank 4 active after its unbounded crash", round)
		}
		alive := 0
		for i, a := range a1 {
			if a {
				alive++
			}
			if everDead[i] && a && !eventScheduledActive(sched, i, round) {
				// A mortality-dead rank must never come back.
				t.Fatalf("round %d: mortality-dead rank %d returned", round, i)
			}
			if !a && !p1.eventAbsent(i, round) {
				everDead[i] = true
			}
		}
		if alive < 2 {
			t.Fatalf("round %d: only %d alive", round, alive)
		}
		_ = prevAlive
		prevAlive = alive
	}
}

// TestMembershipStreamRejectsOutOfOrder: the churn and mortality draws are
// sequential, so a stream stepped to anything but the next round fails.
func TestMembershipStreamRejectsOutOfOrder(t *testing.T) {
	sched := validSchedule()
	s, err := Membership{Faults: &sched}.Stream(sched.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := s.Step(round); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Step(5); err == nil || !strings.Contains(err.Error(), "expected 3") {
		t.Fatalf("out-of-order step accepted: %v", err)
	}
}

func mortalityDead(p *FaultProcess, rank int) bool { return p.dead[rank] }

func eventScheduledActive(s FaultSchedule, rank, t int) bool {
	for _, e := range s.Events {
		if e.Rank == rank && e.covers(t) {
			return false
		}
	}
	return true
}

// TestFaultScheduleReachesEngine checks the fault planner's active
// sets reach the engine: scheduled-dead workers' models must stay frozen
// during their windows.
func TestFaultScheduleReachesEngine(t *testing.T) {
	fc, bw, _ := testSetup(t, 4)
	cfg := sapsConfig(4)
	sched := FaultSchedule{N: 4, Seed: cfg.Seed, Events: []FaultEvent{{Rank: 1, Round: 2, RejoinAfter: 2}}}
	alg := newSAPSFamily("saps", fc, bw, cfg, Membership{Faults: &sched})
	defer alg.Close()

	led := &engine.CountingLedger{}
	var frozen []float64
	var history []int
	for round := 0; round < 6; round++ {
		if round == 2 {
			frozen = alg.Models()[1].FlatParams(nil)
		}
		history = append(history, planned(alg.Round(round, led).Plan, 4))
		cur := alg.Models()[1].FlatParams(nil)
		inWindow := round == 2 || round == 3
		changed := false
		for j := range cur {
			if frozen != nil && cur[j] != frozen[j] {
				changed = true
				break
			}
		}
		if inWindow && changed {
			t.Fatalf("round %d: crashed worker's model moved", round)
		}
		if round >= 4 && frozen != nil && !changed {
			// After rejoin the worker trains again (it participates in
			// matching and local SGD), so its parameters must move.
			t.Fatalf("round %d: rejoined worker's model still frozen", round)
		}
	}
	if history[2] != 3 || history[0] != 4 {
		t.Fatalf("active history %v, want 4 at round 0 and 3 at round 2", history)
	}
}
