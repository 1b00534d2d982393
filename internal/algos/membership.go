package algos

import (
	"fmt"

	"sapspsgd/internal/core"
	"sapspsgd/internal/fleettrace"
)

// Membership describes who is present in each round of a SAPS run — the
// paper's robustness setting, where the coordinator simply re-runs
// Algorithm 3 over whoever is there. A worker is active in a round only when
// every source given says so; absent workers neither train nor communicate;
// the zero Membership is the static fleet. Every source is a seeded or pure
// function of the round, so all streams built from one description walk the
// same membership — at any shard count, in the in-process engine and in the
// TCP coordinator alike.
type Membership struct {
	// Churn is the seeded random leave/join process.
	Churn *ChurnModel
	// Faults is the crash, rejoin and mortality schedule (its N must be the
	// fleet size). An empty schedule is no source.
	Faults *FaultSchedule
	// Replay scripts presence from a fleet trace's join/leave events (it
	// must cover the fleet size).
	Replay *fleettrace.Replay
}

// Stream builds the live round → active-set stream for a fleet of n
// workers. seed derives the churn draws (a fault schedule carries its own
// seed). It fails on a malformed source or one sized for another fleet.
func (m Membership) Stream(n int, seed uint64) (*MembershipStream, error) {
	s := &MembershipStream{replay: m.Replay}
	if m.Churn != nil {
		if err := m.Churn.validate(n); err != nil {
			return nil, err
		}
		s.churn = newChurnProcess(n, seed, *m.Churn)
	}
	if !m.Faults.Empty() {
		if m.Faults.N != n {
			return nil, fmt.Errorf("algos: fault schedule over %d workers for a fleet of %d", m.Faults.N, n)
		}
		if err := m.Faults.Validate(); err != nil {
			return nil, err
		}
		s.faults = NewFaultProcess(*m.Faults)
	}
	if m.Replay != nil && m.Replay.N() != n {
		return nil, fmt.Errorf("algos: trace replay over %d nodes for a fleet of %d", m.Replay.N(), n)
	}
	return s, nil
}

// Check steps a throw-away stream over rounds [0, rounds) and returns the
// first failure: a malformed source, or the first round the sources together
// leave fewer than two workers (each alone keeps two; their intersection need
// not). A stream that fails mid-run takes the run down with it, so check
// before building the real one.
func (m Membership) Check(n int, seed uint64, rounds int) error {
	s, err := m.Stream(n, seed)
	for t := 0; err == nil && t < rounds; t++ {
		_, err = s.Step(t)
	}
	return err
}

// MembershipStream iterates a Membership one round at a time.
type MembershipStream struct {
	churn  *churnProcess
	faults *FaultProcess
	replay *fleettrace.Replay
	next   int

	scheduled, traced, active []bool
}

// Step advances the stream to round t — which must be the next unvisited
// round, the churn and mortality draws being sequential — and returns the
// round's active set: the intersection of the sources', valid until the next
// Step, or nil (everyone) when the description named no source. It fails
// when fewer than two workers would be active.
func (s *MembershipStream) Step(t int) ([]bool, error) {
	if t != s.next {
		return nil, fmt.Errorf("algos: membership stepped to round %d, expected %d", t, s.next)
	}
	s.next++
	var churned []bool
	if s.churn != nil {
		churned = s.churn.step()
	}
	if s.faults != nil {
		s.scheduled = s.faults.Step(t)
	}
	if s.replay != nil {
		s.traced = s.replay.Active(t, s.traced)
	}
	s.active = intersectActive(s.active, churned, s.scheduled, s.traced)
	if n := countActive(s.active); s.active != nil && n < 2 {
		return nil, fmt.Errorf("algos: the membership sources leave %d active workers at round %d", n, t)
	}
	return s.active, nil
}

// Scheduled is the fault schedule's own active set for the round last
// stepped (nil without a schedule). The TCP coordinator kills exactly these
// absentees: a worker the trace merely scripts away stays connected.
func (s *MembershipStream) Scheduled() []bool { return s.scheduled }

// intersectActive ANDs the non-nil sets into dst's storage and returns the
// result; nil — everyone — when every set is nil.
func intersectActive(dst []bool, sets ...[]bool) []bool {
	var out []bool
	for _, set := range sets {
		switch {
		case set == nil:
		case out == nil:
			out = append(dst[:0], set...)
		default:
			for i, on := range set {
				out[i] = out[i] && on
			}
		}
	}
	return out
}

func countActive(active []bool) int {
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	return n
}

// membershipPlanner is the coordinator over a dynamic fleet: every round it
// asks the stream who is present and runs Algorithm 3 over exactly those. A
// static stream's nil set makes PlanActive the plain Coordinator.Plan.
type membershipPlanner struct {
	coord  *core.Coordinator
	stream *MembershipStream
}

// Plan implements engine.Planner.
func (p *membershipPlanner) Plan(t int) core.RoundPlan {
	active, err := p.stream.Step(t)
	if err != nil {
		panic(err) // Membership.Check over the run's rounds reports this up front
	}
	return p.coord.PlanActive(t, active)
}
