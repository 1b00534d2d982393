package algos

import (
	"fmt"
	"slices"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/fleettrace"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
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

// RoundPlanner is a run's coordinator side: the one code that decides who is
// planned in round t, in process and over TCP alike. For an Adaptive recipe
// it runs Algorithm 3 over the round's membership ANDed with a liveness mask
// (the paper's coordinator "simply regenerates the gossip matrix over whoever
// is present"); every other recipe plans with its bare planner and cannot
// lose a worker. A static fleet with nobody excluded plans exactly as the
// bare planner does.
type RoundPlanner struct {
	recipe Recipe
	bw     *netsim.Bandwidth
	coord  *core.Coordinator // Adaptive recipes
	base   engine.Planner    // the others
	stream *MembershipStream // Adaptive recipes
	round  int               // the round last stepped, -1 before the first
	// member is the membership's set for round (nil = everyone) and live
	// the liveness mask over every rank; eff holds their intersection.
	member, live, eff []bool
}

// NewRoundPlanner builds the coordinator side of recipe r over bw under
// Algorithm 3's thresholds gcfg and the membership m, which it checks over
// rounds [0, rounds): a malformed source, or a round the sources together
// leave with fewer than two workers, fails here rather than mid-run. Only an
// Adaptive recipe reads gcfg and m.
func NewRoundPlanner(r Recipe, bw *netsim.Bandwidth, gcfg gossip.Config, m Membership, rounds int) (*RoundPlanner, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	p := &RoundPlanner{recipe: r, bw: bw, round: -1, live: slices.Repeat([]bool{true}, r.Nodes())}
	if !r.Adaptive() {
		p.base = r.Planner(bw, gcfg)
		return p, nil
	}
	if err := m.Check(r.Workers, r.Seed, rounds); err != nil {
		return nil, err
	}
	stream, err := m.Stream(r.Workers, r.Seed)
	if err != nil {
		return nil, err
	}
	p.stream, p.coord = stream, r.coordinator(bw, gcfg)
	return p, nil
}

// Begin steps the membership to round t the first time it sees t; again for
// the same t it does nothing, so a re-planned round keeps its membership.
// Plan calls it; the TCP coordinator calls it first, to inject the round's
// scheduled crashes (Scheduled) before planning.
func (p *RoundPlanner) Begin(t int) error {
	if t == p.round {
		return nil
	}
	if p.stream != nil {
		member, err := p.stream.Step(t)
		if err != nil {
			return err
		}
		p.member = member
	}
	p.round = t
	return nil
}

// Scheduled is the fault schedule's own active set for the round last
// begun (nil without a schedule): the workers a TCP coordinator kills.
func (p *RoundPlanner) Scheduled() []bool {
	if p.stream == nil {
		return nil
	}
	return p.stream.Scheduled()
}

// Exclude marks rank lost: no round is planned over it until Readmit.
func (p *RoundPlanner) Exclude(rank int) { p.live[rank] = false }

// Readmit returns an excluded rank to the rounds planned from now on.
func (p *RoundPlanner) Readmit(rank int) { p.live[rank] = true }

// Live reports whether rank is not excluded.
func (p *RoundPlanner) Live(rank int) bool { return p.live[rank] }

// LiveCount is the number of ranks not excluded.
func (p *RoundPlanner) LiveCount() int { return countActive(p.live) }

// Ready reports why the current round cannot be planned: a worker is lost
// and the recipe cannot re-plan over a partial fleet, or fewer than two
// workers remain.
func (p *RoundPlanner) Ready() error {
	if p.LiveCount() == len(p.live) {
		return nil
	}
	if p.coord == nil {
		return fmt.Errorf("algos: lost a worker but algorithm %q cannot re-plan over a partial fleet", p.recipe.Algo)
	}
	if n := countActive(p.active()); n < 2 {
		return fmt.Errorf("algos: only %d effective workers remain", n)
	}
	return nil
}

// active is the round's membership ANDed with liveness; nil (everyone) when
// neither leaves anyone out, so a static fleet plans as the bare planner.
func (p *RoundPlanner) active() []bool {
	if p.LiveCount() == len(p.live) {
		return p.member
	}
	p.eff = intersectActive(p.eff, p.live, p.member)
	return p.eff
}

// Plan implements engine.Planner: round t over whoever is present. Called
// again for the same t it re-plans the round (the abort path) with fresh
// draws and the membership already stepped. It panics where Begin or Ready
// fails; NewRoundPlanner checked the membership, and a caller that excludes
// ranks asks Ready before each round.
func (p *RoundPlanner) Plan(t int) core.RoundPlan {
	err := p.Begin(t)
	if err == nil {
		err = p.Ready()
	}
	if err != nil {
		panic(err)
	}
	if p.coord == nil {
		return p.base.Plan(t)
	}
	return p.coord.PlanActive(t, p.active())
}
