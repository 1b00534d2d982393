package algos

import (
	"fmt"
	"sort"

	"sapspsgd/internal/rng"
)

// FaultEvent schedules one worker crash: Rank is dead for rounds
// [Round, Round+RejoinAfter) and rejoins at round Round+RejoinAfter.
// RejoinAfter <= 0 means the worker never returns.
type FaultEvent struct {
	Rank        int `json:"rank"`
	Round       int `json:"round"`
	RejoinAfter int `json:"rejoin_after,omitempty"`
}

// window returns the event's absence interval [from, to); to < 0 encodes an
// unbounded window.
func (e FaultEvent) window() (from, to int) {
	if e.RejoinAfter <= 0 {
		return e.Round, -1
	}
	return e.Round, e.Round + e.RejoinAfter
}

// covers reports whether round t falls inside the event's absence window.
func (e FaultEvent) covers(t int) bool {
	from, to := e.window()
	return t >= from && (to < 0 || t < to)
}

// FaultMortality is seeded random permanent worker death: before each round,
// every not-yet-dead worker dies with probability Prob, drawn rank-ascending
// from a stream derived from the schedule seed. Deaths stop while the
// mortality-surviving count is at MinAlive, so the fleet never randomly
// shrinks below it. Unlike churn (ChurnModel), mortality is permanent —
// dead workers never rejoin.
type FaultMortality struct {
	Prob     float64 `json:"prob"`
	MinAlive int     `json:"min_alive"`
}

// FaultSchedule is the deterministic fault-injection plan both runtimes
// honor: the in-process engine excludes scheduled-dead workers from the
// round plan, and the TCP coordinator actually crashes the corresponding
// worker processes at the same boundaries (and waits for scheduled
// rejoiners). Every draw derives from Seed, so the simulated and deployed
// runs compute identical membership — the foundation of the kill-and-rejoin
// equivalence contract.
type FaultSchedule struct {
	// N is the trainer count the schedule covers.
	N int
	// Seed derives the mortality stream (unused without Mortality).
	Seed uint64
	// Events are the scheduled crash/rejoin windows.
	Events []FaultEvent
	// Mortality, when non-nil, adds seeded random permanent deaths.
	Mortality *FaultMortality
}

// Empty reports whether the schedule injects no faults at all.
func (s *FaultSchedule) Empty() bool {
	return s == nil || (len(s.Events) == 0 && s.Mortality == nil)
}

// Validate returns an error describing the first invalid field, if any:
// out-of-range ranks, overlapping windows for one rank, event combinations
// leaving fewer than two workers, or malformed mortality parameters.
func (s *FaultSchedule) Validate() error {
	if s == nil {
		return nil
	}
	if s.N < 2 {
		return fmt.Errorf("algos: fault schedule over %d workers", s.N)
	}
	perRank := map[int][]FaultEvent{}
	for _, e := range s.Events {
		if e.Rank < 0 || e.Rank >= s.N {
			return fmt.Errorf("algos: fault event rank %d of %d workers", e.Rank, s.N)
		}
		if e.Round < 0 {
			return fmt.Errorf("algos: fault event for rank %d at negative round %d", e.Rank, e.Round)
		}
		perRank[e.Rank] = append(perRank[e.Rank], e)
	}
	for rank, evs := range perRank {
		sort.Slice(evs, func(a, b int) bool { return evs[a].Round < evs[b].Round })
		for i := 1; i < len(evs); i++ {
			_, prevTo := evs[i-1].window()
			if prevTo < 0 || evs[i].Round < prevTo {
				return fmt.Errorf("algos: overlapping fault windows for rank %d (round %d overlaps the window starting at %d)",
					rank, evs[i].Round, evs[i-1].Round)
			}
		}
	}
	// At every event start, the event-scheduled absences alone must leave at
	// least two workers (absence counts only change at window boundaries, so
	// checking the starts covers every round).
	maxAbsent := 0
	for _, e := range s.Events {
		absent := 0
		for _, o := range s.Events {
			if o.covers(e.Round) {
				absent++
			}
		}
		if s.N-absent < 2 {
			return fmt.Errorf("algos: fault events leave %d of %d workers at round %d", s.N-absent, s.N, e.Round)
		}
		if absent > maxAbsent {
			maxAbsent = absent
		}
	}
	if m := s.Mortality; m != nil {
		if m.Prob < 0 || m.Prob >= 1 {
			return fmt.Errorf("algos: mortality probability %v", m.Prob)
		}
		if m.MinAlive < 2 || m.MinAlive > s.N {
			return fmt.Errorf("algos: mortality min_alive %d of %d", m.MinAlive, s.N)
		}
		// Mortality guarantees MinAlive survivors, but in the worst case
		// every concurrently crashed rank is one of them: the combination
		// must still leave two active workers at every round.
		if m.MinAlive-maxAbsent < 2 {
			return fmt.Errorf("algos: mortality min_alive %d minus %d concurrently crashed workers can leave fewer than two active (raise min_alive or shrink the crash windows)",
				m.MinAlive, maxAbsent)
		}
	}
	return nil
}

// FaultProcess iterates a FaultSchedule's membership, one round at a time —
// the scheduled source of a Membership. Step must be called once per round in
// round order (the mortality stream is sequential; MembershipStream enforces
// it); every process constructed from the same schedule produces identical
// membership, whichever machine it runs on.
type FaultProcess struct {
	sched FaultSchedule
	rnd   *rng.Source
	dead  []bool // mortality deaths (permanent)
	alive int    // N minus mortality deaths
}

// NewFaultProcess builds the membership process. The schedule must have been
// validated (Membership.Stream does).
func NewFaultProcess(sched FaultSchedule) *FaultProcess {
	return &FaultProcess{
		sched: sched,
		rnd:   rng.New(sched.Seed).Derive(0xfa017),
		dead:  make([]bool, sched.N),
		alive: sched.N,
	}
}

// Step advances the process to round t and returns that round's active set —
// a fresh slice the caller owns.
func (p *FaultProcess) Step(t int) []bool {
	if m := p.sched.Mortality; m != nil {
		for i := 0; i < p.sched.N; i++ {
			if p.dead[i] || p.alive <= m.MinAlive {
				// The draw is skipped entirely at the floor, keeping the
				// stream a deterministic function of the death history.
				continue
			}
			if p.rnd.Bernoulli(m.Prob) {
				p.dead[i] = true
				p.alive--
			}
		}
	}
	active := make([]bool, p.sched.N)
	for i := range active {
		active[i] = !p.dead[i] && !p.eventAbsent(i, t)
	}
	return active
}

// eventAbsent reports whether rank is inside a scheduled crash window at t.
func (p *FaultProcess) eventAbsent(rank, t int) bool {
	for _, e := range p.sched.Events {
		if e.Rank == rank && e.covers(t) {
			return true
		}
	}
	return false
}
