package algos

import (
	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
)

// The paper's algorithm is the "saps" recipe — local SGD + shared-seed
// sparsified single-peer gossip over the pairwise pattern — on the same
// chassis as every baseline; "randomchoose" is the same recipe under another
// planner. What sets the SAPS family apart is the engine.Planner: Algorithm 3
// over the bandwidth environment and a Membership, or RandomChoose's uniform
// matching.

// NewSAPS builds the paper's algorithm over the bandwidth environment bw:
// adaptive (bandwidth-aware, recency-constrained) peer selection over a
// static fleet. cfg gives the shared-mask ratio, the local steps and
// Algorithm 3's thresholds; the fleet-shaped fields come from fc, as New has
// them.
func NewSAPS(fc FleetConfig, bw *netsim.Bandwidth, cfg core.Config) *InProc {
	return newOver(fc, Recipe{Algo: "saps", Compression: cfg.Compression, LocalSteps: cfg.LocalSteps}, bw, cfg.Gossip, Membership{})
}

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

// NewPlannerOnly is a SAPS-family run's coordinator side alone — the paper's
// Fig. 5: the planner (core.NewCoordinator, or NewRandomPlanner) drives the
// same engine.Driver round over a control with no nodes, which charges every
// matched pair the bytes of the round's shared mask over a dim-parameter
// model at compression ratio c. No model, dataset or engine is built;
// traffic and simulated time are bit-identical to the full run's (the
// mask-seed stream and the matchings are the same), Models is empty and the
// loss reads zero.
func NewPlannerOnly(planner engine.Planner, dim int, c float64) *InProc {
	ctl := &maskTraffic{dim: dim, c: c}
	return &InProc{
		step:   engine.NewDriver(planner, ctl).Round,
		server: -1,
	}
}

// maskTraffic is the engine.Control of a planner-only run: what the saps
// recipe's workers would have reported for the plan, without the workers.
type maskTraffic struct {
	dim   int
	c     float64
	mask  []int32
	pairs []engine.PairTraffic
}

// RunRound implements engine.Control: one pair per matching edge, each
// direction the masked payload, in ascending rank order (the order
// engine.ReportFold gives a fleet's pairs).
func (m *maskTraffic) RunRound(plan core.RoundPlan) (engine.ControlReport, error) {
	m.mask = compress.MaskIndices(m.mask, plan.Seed, plan.Round, m.dim, m.c)
	ones := len(m.mask)
	payload := compress.MaskedBytes(ones)
	m.pairs = m.pairs[:0]
	for v, p := range plan.Peer {
		if p > v {
			m.pairs = append(m.pairs, engine.PairTraffic{I: v, J: p, IToJ: payload, JToI: payload})
		}
	}
	return engine.ControlReport{PayloadLen: ones, Pairs: m.pairs}, nil
}
