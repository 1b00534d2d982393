package algos

import (
	"fmt"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/trace"
)

// ChurnModel describes per-round worker availability dynamics: an active
// worker leaves with probability LeaveProb, an inactive one rejoins with
// probability JoinProb. At least MinActive workers are always kept active
// (the longest-absent workers are recalled first).
type ChurnModel struct {
	LeaveProb float64
	JoinProb  float64
	MinActive int
}

func (c ChurnModel) validate(n int) {
	if c.LeaveProb < 0 || c.LeaveProb >= 1 || c.JoinProb <= 0 || c.JoinProb > 1 {
		panic(fmt.Sprintf("algos: churn probabilities %v/%v", c.LeaveProb, c.JoinProb))
	}
	if c.MinActive < 2 || c.MinActive > n {
		panic(fmt.Sprintf("algos: MinActive %d of %d", c.MinActive, n))
	}
}

// SAPSChurn is SAPS-PSGD under dynamic membership: each round a random
// subset of workers is offline — they neither train nor communicate, and
// the coordinator matches only the present workers (paper §I: workers "may
// join/leave the training randomly due to the battery power, network
// connection, ..."). Returning workers are re-synchronized by the gossip
// itself; no special recovery protocol is needed. SAPSChurn is itself the
// engine's Planner: membership evolves inside Plan, and the resulting
// RoundPlan carries the Active set the engine honors.
type SAPSChurn struct {
	fleet  *Fleet
	eng    *engine.Engine
	coord  *core.Coordinator
	churn  ChurnModel
	rnd    *rng.Source
	active []bool
	absent []int // rounds since last active (for MinActive recall)
	// ActiveHistory records the number of active workers each round.
	ActiveHistory []int
	// Trace, when set, records one event per round like SAPS.Trace, with
	// ActiveWorkers reflecting the round's surviving membership.
	Trace *trace.Recorder
	bw    *netsim.Bandwidth
}

// SetTrace attaches a round recorder (scenario.RunFull's hook).
func (s *SAPSChurn) SetTrace(r *trace.Recorder) { s.Trace = r }

// NewSAPSChurn builds SAPS-PSGD with the given churn model.
func NewSAPSChurn(fc FleetConfig, bw *netsim.Bandwidth, cfg core.Config, churn ChurnModel) *SAPSChurn {
	churn.validate(fc.N)
	f := NewFleet(fc)
	s := &SAPSChurn{
		fleet:  f,
		bw:     bw,
		churn:  churn,
		rnd:    rng.New(cfg.Seed).Derive(0xc4012),
		active: make([]bool, f.N),
		absent: make([]int, f.N),
		coord:  core.NewCoordinator(bw, cfg),
	}
	for i := range s.active {
		s.active[i] = true
	}
	s.eng = engine.New(engine.Options{
		Workers: newEngineWorkers(f, fc, cfg),
		Planner: s,
		Shards:  fc.RuntimeShards,
	})
	return s
}

// Name implements Algorithm.
func (s *SAPSChurn) Name() string { return "SAPS-PSGD(churn)" }

// Models implements Algorithm.
func (s *SAPSChurn) Models() []*nn.Model { return s.fleet.Models }

// Close releases the engine's executors.
func (s *SAPSChurn) Close() { s.eng.Close() }

// step churn: flip availability, then enforce MinActive by recalling the
// longest-absent workers.
func (s *SAPSChurn) updateMembership() {
	for i := range s.active {
		if s.active[i] {
			if s.rnd.Bernoulli(s.churn.LeaveProb) {
				s.active[i] = false
			}
		} else if s.rnd.Bernoulli(s.churn.JoinProb) {
			s.active[i] = true
		}
	}
	count := 0
	for _, a := range s.active {
		if a {
			count++
		}
	}
	for count < s.churn.MinActive {
		// Recall the longest-absent worker.
		best, bestAbsent := -1, -1
		for i, a := range s.active {
			if !a && s.absent[i] > bestAbsent {
				best, bestAbsent = i, s.absent[i]
			}
		}
		s.active[best] = true
		count++
	}
	for i, a := range s.active {
		if a {
			s.absent[i] = 0
		} else {
			s.absent[i]++
		}
	}
}

// Plan implements engine.Planner: advance the membership process, then run
// Algorithm 3 over the present workers only.
func (s *SAPSChurn) Plan(t int) core.RoundPlan {
	s.updateMembership()
	nActive := 0
	for _, a := range s.active {
		if a {
			nActive++
		}
	}
	s.ActiveHistory = append(s.ActiveHistory, nActive)
	return s.coord.PlanActive(t, s.active)
}

// Step implements Algorithm.
func (s *SAPSChurn) Step(round int, led engine.Ledger) float64 {
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

var _ Algorithm = (*SAPSChurn)(nil)
var _ engine.Planner = (*SAPSChurn)(nil)

// Active exposes the current membership (matched pairs must both be active;
// verified by the tests).
func (s *SAPSChurn) Active() []bool { return s.active }
