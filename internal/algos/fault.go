package algos

import (
	"fmt"
	"sort"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/trace"
)

// FaultEvent schedules one worker crash: Rank is dead for rounds
// [Round, Round+RejoinAfter) and rejoins at round Round+RejoinAfter.
// RejoinAfter <= 0 means the worker never returns.
type FaultEvent struct {
	Rank        int
	Round       int
	RejoinAfter int
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
	Prob     float64
	MinAlive int
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

// FaultProcess iterates a FaultSchedule's membership, one round at a time.
// Step must be called exactly once per round in round order (the mortality
// stream is sequential); every process constructed from the same schedule
// produces identical membership, whichever machine it runs on.
type FaultProcess struct {
	sched FaultSchedule
	rnd   *rng.Source
	dead  []bool // mortality deaths (permanent)
	alive int    // N minus mortality deaths
	next  int
}

// NewFaultProcess builds the membership process. The schedule must have been
// validated.
func NewFaultProcess(sched FaultSchedule) *FaultProcess {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	return &FaultProcess{
		sched: sched,
		rnd:   rng.New(sched.Seed).Derive(0xfa017),
		dead:  make([]bool, sched.N),
		alive: sched.N,
	}
}

// Step advances the process to round t (which must be the next unvisited
// round) and returns that round's active set — a fresh slice the caller
// owns. It fails if the combined faults would leave fewer than two workers.
func (p *FaultProcess) Step(t int) ([]bool, error) {
	if t != p.next {
		return nil, fmt.Errorf("algos: fault process stepped to round %d, expected %d", t, p.next)
	}
	p.next++
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
	count := 0
	for i := range active {
		active[i] = !p.dead[i] && !p.eventAbsent(i, t)
		if active[i] {
			count++
		}
	}
	if count < 2 {
		return nil, fmt.Errorf("algos: faults leave %d active workers at round %d", count, t)
	}
	return active, nil
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

// SAPSFaults is SAPS-PSGD under the declarative fault schedule: the
// scheduled-dead workers neither train nor communicate, exactly as a crashed
// process would over TCP, and the coordinator matches only the survivors —
// reusing the same PlanActive path the churn variant drives. This is the
// in-process reference the TCP kill-and-rejoin equivalence test compares
// against. Like SAPSChurn it is itself the engine's Planner.
type SAPSFaults struct {
	fleet *Fleet
	eng   *engine.Engine
	coord *core.Coordinator
	proc  *FaultProcess
	// ActiveHistory records the number of active workers each round.
	ActiveHistory []int
	// Trace, when set, records one event per round like SAPS.Trace, with
	// ActiveWorkers reflecting the round's surviving membership.
	Trace *trace.Recorder
	bw    *netsim.Bandwidth
}

// SetTrace attaches a round recorder (scenario.RunFull's hook).
func (s *SAPSFaults) SetTrace(r *trace.Recorder) { s.Trace = r }

// NewSAPSFaults builds SAPS-PSGD with the given fault schedule (whose N must
// equal the fleet size).
func NewSAPSFaults(fc FleetConfig, bw *netsim.Bandwidth, cfg core.Config, sched FaultSchedule) *SAPSFaults {
	if sched.N != fc.N {
		panic(fmt.Sprintf("algos: fault schedule over %d workers for a fleet of %d", sched.N, fc.N))
	}
	f := NewFleet(fc)
	s := &SAPSFaults{
		fleet: f,
		bw:    bw,
		proc:  NewFaultProcess(sched),
		coord: core.NewCoordinator(bw, cfg),
	}
	s.eng = engine.New(engine.Options{
		Workers: newEngineWorkers(f, fc, cfg),
		Planner: s,
		Shards:  fc.RuntimeShards,
	})
	return s
}

// Name implements Algorithm.
func (s *SAPSFaults) Name() string { return "SAPS-PSGD(faults)" }

// Models implements Algorithm.
func (s *SAPSFaults) Models() []*nn.Model { return s.fleet.Models }

// Close releases the engine's executors.
func (s *SAPSFaults) Close() { s.eng.Close() }

// Plan implements engine.Planner: advance the fault process, then run
// Algorithm 3 over the surviving workers only.
func (s *SAPSFaults) Plan(t int) core.RoundPlan {
	active, err := s.proc.Step(t)
	if err != nil {
		panic(err)
	}
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	s.ActiveHistory = append(s.ActiveHistory, n)
	return s.coord.PlanActive(t, active)
}

// Step implements Algorithm.
func (s *SAPSFaults) Step(round int, led engine.Ledger) float64 {
	stats, err := s.eng.Step(round, led)
	if err != nil {
		panic(err)
	}
	if s.Trace != nil {
		payload := compress.MaskedBytes(stats.PayloadLen)
		s.Trace.Record(round, stats.Plan.Matching(), s.bw, stats.Plan.Forced,
			payload, s.ActiveHistory[len(s.ActiveHistory)-1], stats.Loss)
	}
	return stats.Loss
}

var (
	_ Algorithm      = (*SAPSFaults)(nil)
	_ engine.Planner = (*SAPSFaults)(nil)
)
