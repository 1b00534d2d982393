package algos

import (
	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/trace"
)

// SAPS is the paper's algorithm: local SGD + shared-seed sparsified
// single-peer gossip with adaptive (bandwidth-aware, recency-constrained)
// peer selection. The round loop itself lives in internal/engine; this type
// assembles the engine over the in-process memtransport backend and layers
// the simulation-side diagnostics (matched-bandwidth series, tracing) on
// top. NewRandomChoose builds the same type over a different planner.
type SAPS struct {
	name  string
	fleet *Fleet
	eng   *engine.Engine
	// LastMatchedBandwidth is the mean bandwidth (MB/s) over the pairs
	// matched in the most recent round — the Fig. 5 series.
	LastMatchedBandwidth float64
	// Trace, when set, records one event per round (matching, bandwidths,
	// forced-reconnection flag, payload size, loss).
	Trace *trace.Recorder
	bw    *netsim.Bandwidth
}

// newEngineWorkers builds the rank-indexed core workers over a fleet.
func newEngineWorkers(f *Fleet, fc FleetConfig, cfg core.Config) []*core.Worker {
	ws := make([]*core.Worker, f.N)
	for i := 0; i < f.N; i++ {
		// The fleet's models are shared so evaluation sees the live
		// parameters.
		ws[i] = core.NewWorker(i, f.Models[i], fc.Shards[i], cfg)
	}
	return ws
}

// NewSAPS builds the algorithm over the bandwidth environment bw.
func NewSAPS(fc FleetConfig, bw *netsim.Bandwidth, cfg core.Config) *SAPS {
	return newSAPS("SAPS-PSGD", fc, bw, cfg, core.NewCoordinator(bw, cfg))
}

func newSAPS(name string, fc FleetConfig, bw *netsim.Bandwidth, cfg core.Config, planner engine.Planner) *SAPS {
	f := NewFleet(fc)
	s := &SAPS{name: name, fleet: f, bw: bw}
	s.eng = engine.New(engine.Options{
		Workers: newEngineWorkers(f, fc, cfg),
		Planner: planner,
		Shards:  fc.RuntimeShards,
	})
	return s
}

// SetTrace attaches a round recorder (the scenario loop's hook; equivalent
// to assigning Trace directly).
func (s *SAPS) SetTrace(r *trace.Recorder) { s.Trace = r }

// Name implements Algorithm.
func (s *SAPS) Name() string { return s.name }

// Models implements Algorithm.
func (s *SAPS) Models() []*nn.Model { return s.fleet.Models }

// Close releases the engine's executors (also reclaimed automatically when
// the algorithm becomes unreachable).
func (s *SAPS) Close() { s.eng.Close() }

// Step implements Algorithm: Algorithm 1 (coordinator) + Algorithm 2
// (workers) for one round, executed by the engine.
func (s *SAPS) Step(round int, led engine.Ledger) float64 {
	stats, err := s.eng.Step(round, led)
	if err != nil {
		panic(err) // the in-process transport cannot fail
	}
	s.LastMatchedBandwidth = gossip.MeanMatchedBandwidth(stats.Plan.Matching(), s.bw)
	if s.Trace != nil {
		payload := compress.MaskedBytes(stats.PayloadLen)
		s.Trace.Record(round, stats.Plan.Matching(), s.bw, stats.Plan.Forced, payload, s.fleet.N, stats.Loss)
	}
	return stats.Loss
}

var _ Algorithm = (*SAPS)(nil)

// randomPlanner draws a uniformly random maximum matching and a fresh mask
// seed each round.
type randomPlanner struct {
	n       int
	rnd     *rng.Source
	seedSrc *rng.Source
}

// NewRandomPlanner is RandomChoose's coordinator side alone: a uniformly
// random maximum matching over n workers and a fresh mask seed per round.
func NewRandomPlanner(n int, seed uint64) engine.Planner {
	return &randomPlanner{
		n:       n,
		rnd:     rng.New(seed).Derive(0x7a4d01),
		seedSrc: rng.New(seed).Derive(0x7a4d02),
	}
}

func (p *randomPlanner) Plan(t int) core.RoundPlan {
	return core.RoundPlan{
		Round: t,
		Seed:  p.seedSrc.Uint64(),
		Peer:  []int(gossip.RandomMatching(p.n, p.rnd)),
	}
}

// NewRandomChoose is SAPS with the adaptive peer selection replaced by a
// uniformly random maximum matching each round — the paper's RandomChoose
// comparison in Fig. 5. Sparsification and masked averaging are unchanged:
// only the engine's Planner differs.
func NewRandomChoose(fc FleetConfig, bw *netsim.Bandwidth, cfg core.Config) *SAPS {
	return newSAPS("RandomChoose", fc, bw, cfg, NewRandomPlanner(fc.N, cfg.Seed))
}
