package core

import (
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
)

// Coordinator is the lightweight central manager of Algorithm 1. It never
// touches model payloads — per round it produces only the gossip matching
// W_t and the mask seed s, both small control messages (the paper compares
// it to a BitTorrent tracker).
type Coordinator struct {
	cfg Config
	gen *gossip.Generator
	rs  *rng.Source
}

// RoundPlan is the control message broadcast to workers each round
// (W_t, t, s of Algorithm 1 line 6). Peer[rank] is the rank to exchange with
// this round, or -1 to skip.
type RoundPlan struct {
	Round int
	Seed  uint64
	Peer  []int
	// Active, when non-nil, marks which workers participate this round
	// (dynamic membership): inactive workers neither train nor communicate.
	// nil means every worker is active.
	Active []bool
	// Forced reports whether Algorithm 3 had to inject connectivity-
	// restoring edges this round (diagnostics).
	Forced bool
}

// NewCoordinator builds the coordinator over a bandwidth environment. The
// environment is the coordinator's bandwidth matrix B (Algorithm 1 input);
// in deployment it is assembled from worker-reported link measurements.
func NewCoordinator(bw *netsim.Bandwidth, cfg Config) *Coordinator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Coordinator{
		cfg: cfg,
		gen: gossip.NewGenerator(bw, cfg.Gossip, cfg.Seed),
		rs:  rng.New(cfg.Seed).Derive(0xc00d),
	}
}

// Plan runs Algorithm 3 for round t and draws the round's mask seed.
func (c *Coordinator) Plan(t int) RoundPlan { return c.PlanActive(t, nil) }

// PlanActive plans a round over a dynamic worker set: workers with
// active[i] == false are excluded from matching (they receive Peer = -1).
// This is the join/leave robustness the paper motivates — the coordinator
// simply regenerates the gossip matrix over whoever is present.
func (c *Coordinator) PlanActive(t int, active []bool) RoundPlan {
	r := c.gen.NextActive(t, active)
	var snapshot []bool
	if active != nil {
		// Copy: the caller's membership slice mutates between rounds while
		// the plan may still be in flight through the engine.
		snapshot = append([]bool(nil), active...)
	}
	return RoundPlan{
		Round:  t,
		Seed:   c.rs.Uint64(),
		Peer:   r.Match,
		Active: snapshot,
		Forced: r.Forced,
	}
}

// Matching converts a RoundPlan's peer table back to a graph.Matching (for
// bandwidth statistics).
func (p RoundPlan) Matching() graph.Matching { return graph.Matching(p.Peer) }
