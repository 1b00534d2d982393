package algos

import (
	"fmt"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/fleettrace"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/trace"
)

// SAPSTrace is SAPS-PSGD under replayed membership: a fleettrace.Replay's
// join/leave events decide who is present each round — the measured-trace
// counterpart of SAPSChurn's random process — optionally intersected with a
// FaultSchedule (a trace-scheduled node can still crash). Absent workers
// neither train nor communicate, and the coordinator matches only the
// present ones through the same PlanActive path churn and faults drive, so
// replayed membership is bit-identical across shard counts and backends.
// Like its siblings, SAPSTrace is itself the engine's Planner.
type SAPSTrace struct {
	fleet  *Fleet
	eng    *engine.Engine
	coord  *core.Coordinator
	replay *fleettrace.Replay
	proc   *FaultProcess
	active []bool
	// ActiveHistory records the number of active workers each round.
	ActiveHistory []int
	// Trace, when set, records one event per round like SAPS.Trace, with
	// ActiveWorkers reflecting the round's replayed membership.
	Trace *trace.Recorder
	bw    *netsim.Bandwidth
}

// SetTrace attaches a round recorder (scenario.RunFull's hook).
func (s *SAPSTrace) SetTrace(r *trace.Recorder) { s.Trace = r }

// NewSAPSTrace builds SAPS-PSGD with replayed membership. The replay must
// cover the fleet size; sched, when non-nil, layers scheduled faults on top
// (a worker is active only when both the trace and the fault process say so).
func NewSAPSTrace(fc FleetConfig, bw *netsim.Bandwidth, cfg core.Config, replay *fleettrace.Replay, sched *FaultSchedule) *SAPSTrace {
	if replay.N() != fc.N {
		panic(fmt.Sprintf("algos: trace replay over %d nodes for a fleet of %d", replay.N(), fc.N))
	}
	f := NewFleet(fc)
	s := &SAPSTrace{
		fleet:  f,
		bw:     bw,
		replay: replay,
		coord:  core.NewCoordinator(bw, cfg),
	}
	if !sched.Empty() {
		s.proc = NewFaultProcess(*sched)
	}
	s.eng = engine.New(engine.Options{
		Workers: newEngineWorkers(f, fc, cfg),
		Planner: s,
		Shards:  fc.RuntimeShards,
	})
	return s
}

// Name implements Algorithm.
func (s *SAPSTrace) Name() string { return "SAPS-PSGD(trace)" }

// Models implements Algorithm.
func (s *SAPSTrace) Models() []*nn.Model { return s.fleet.Models }

// Close releases the engine's executors.
func (s *SAPSTrace) Close() { s.eng.Close() }

// Plan implements engine.Planner: evaluate the replayed membership (and the
// fault process, when present), then run Algorithm 3 over the present
// workers only.
func (s *SAPSTrace) Plan(t int) core.RoundPlan {
	s.active = s.replay.Active(t, s.active)
	if s.proc != nil {
		alive, err := s.proc.Step(t)
		if err != nil {
			panic(err)
		}
		for i := range s.active {
			s.active[i] = s.active[i] && alive[i]
		}
	}
	n := 0
	for _, a := range s.active {
		if a {
			n++
		}
	}
	if n < 2 {
		panic(fmt.Sprintf("algos: trace and faults leave %d active workers at round %d", n, t))
	}
	s.ActiveHistory = append(s.ActiveHistory, n)
	return s.coord.PlanActive(t, s.active)
}

// Step implements Algorithm.
func (s *SAPSTrace) Step(round int, led engine.Ledger) float64 {
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

// Active exposes the current membership (matched pairs must both be active;
// verified by the tests).
func (s *SAPSTrace) Active() []bool { return s.active }

var (
	_ Algorithm      = (*SAPSTrace)(nil)
	_ engine.Planner = (*SAPSTrace)(nil)
)
