package engine

import (
	"fmt"
	"sort"

	"sapspsgd/internal/core"
)

// Pattern is a round's communication shape: who a node talks to and in what
// order, independent of what travels (the Codec) and of how it travels (the
// Transport). A pattern is one phase program — PhaseCount phases, each rank's
// slice of a phase run by RunPhase — so each pattern owns its choreography
// (the hub pattern, for instance, delivers the downlink before the worker
// computes), and every executor runs that one description: the sharded
// runtime runs a phase across all its ranks before the next, WorkerRound
// runs one rank's phases back to back.
//
// Within a phase a rank may compute, encode, decode, merge, and Send; every
// Recv must consume a deposit made in a strictly earlier phase. That rule is
// the whole liveness argument: a rank issues all of a phase's sends before
// it starts the next phase, so a blocked Recv only ever waits on an earlier
// phase of another rank, the wait graph is acyclic, and a conforming phase
// program cannot deadlock on any executor. It is also the determinism
// argument: each rank's floating-point work is confined to its own state and
// happens in program order, whatever interleaving the executor picks.
type Pattern interface {
	// Name identifies the pattern family ("pairwise", "hub", ...).
	Name() string
	// Validate rejects malformed plans before dispatch. This matters for
	// liveness, not just correctness: a malformed plan can leave a node
	// blocked in a Recv with nobody sending.
	Validate(plan core.RoundPlan, n int) error
	// PhaseCount returns the number of phases one round needs over n nodes
	// under plan.
	PhaseCount(plan core.RoundPlan, n int) int
	// RunPhase executes rank ctx.Self's slice of phase p. st is the rank's
	// private in-flight state, reset by the executor at round start; the
	// rank's NodeReport accumulates in st.Rep.
	RunPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error
}

// ---------------------------------------------------------------------------
// Pairwise (matched gossip — SAPS, RandomChoose)

// Pairwise is the matched-pair gossip of Algorithm 1: plan.Peer assigns each
// node at most one symmetric partner per round; both encode, swap, and
// merge. Peer[self] == -1 skips the exchange (the node only trains).
type Pairwise struct{}

// Name implements Pattern.
func (Pairwise) Name() string { return "pairwise" }

// Validate implements Pattern: the peer table must be a symmetric matching
// over active nodes.
func (Pairwise) Validate(plan core.RoundPlan, n int) error {
	if len(plan.Peer) != n {
		return fmt.Errorf("engine: plan for %d workers, have %d", len(plan.Peer), n)
	}
	if plan.Active != nil && len(plan.Active) != n {
		return fmt.Errorf("engine: plan active set for %d workers, have %d", len(plan.Active), n)
	}
	for i, p := range plan.Peer {
		if p == -1 {
			continue
		}
		switch {
		case p < 0 || p >= n || p == i:
			return fmt.Errorf("engine: plan assigns worker %d the peer %d", i, p)
		case plan.Peer[p] != i:
			return fmt.Errorf("engine: asymmetric plan: %d→%d but %d→%d", i, p, p, plan.Peer[p])
		case plan.Active != nil && (!plan.Active[i] || !plan.Active[p]):
			return fmt.Errorf("engine: plan matches inactive worker in pair %d-%d", i, p)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Neighborhood (static-topology gossip — D-PSGD, DCD-PSGD)

// Neighborhood is static-neighborhood gossip: every round each node
// broadcasts one encoded payload to all its topology neighbors and merges
// everything it hears. With IncludeSelf the node's own payload is decoded
// and delivered too — difference-compressed schemes need the node to apply
// the same lossy delta to its own public replica that its neighbors apply to
// theirs.
type Neighborhood struct {
	adj         [][]int
	includeSelf bool
}

// NewNeighborhood builds the pattern over a symmetric adjacency. Neighbor
// lists are copied and sorted ascending.
func NewNeighborhood(adj [][]int, includeSelf bool) *Neighborhood {
	n := len(adj)
	p := &Neighborhood{adj: make([][]int, n), includeSelf: includeSelf}
	for i, ns := range adj {
		p.adj[i] = append([]int(nil), ns...)
		sort.Ints(p.adj[i])
		for _, j := range p.adj[i] {
			if j < 0 || j >= n || j == i {
				panic(fmt.Sprintf("engine: neighborhood adjacency %d→%d over %d nodes", i, j, n))
			}
		}
	}
	// Symmetry: gossip is bidirectional; a one-sided edge would deadlock.
	for i, ns := range p.adj {
		for _, j := range ns {
			if !contains(p.adj[j], i) {
				panic(fmt.Sprintf("engine: asymmetric neighborhood edge %d→%d", i, j))
			}
		}
	}
	return p
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Name implements Pattern.
func (p *Neighborhood) Name() string { return "neighborhood" }

// Validate implements Pattern: the static topology has no dynamic
// membership — every node must be active.
func (p *Neighborhood) Validate(plan core.RoundPlan, n int) error {
	if len(p.adj) != n {
		return fmt.Errorf("engine: neighborhood over %d nodes, plan has %d", len(p.adj), n)
	}
	return requireAllActive(plan, n, "neighborhood")
}

// ---------------------------------------------------------------------------
// Hub (parameter-server fan-in — PS-PSGD, FedAvg, S-FedAvg)

// Hub is the star pattern: one server rank and its chosen workers per round.
// The choreography is pull → train → push: the server computes its payload
// (the current global model) and sends it down to every chosen worker; a
// worker merges the downlink *before* computing, then pushes its own encoded
// payload up; finally the server merges all uploads. The chosen set is
// plan.Active (nil = every worker); the server is always chosen.
//
// Up- and downlink codecs differ per rank: workers encode with their own
// codec (sparse deltas for S-FedAvg), the server with its own (dense model).
type Hub struct {
	// Server is the hub's node rank (by convention the last rank, so n
	// trainers + 1 server occupy ranks 0..n).
	Server int
}

// Name implements Pattern.
func (Hub) Name() string { return "hub" }

// Validate implements Pattern.
func (h Hub) Validate(plan core.RoundPlan, n int) error {
	if h.Server < 0 || h.Server >= n {
		return fmt.Errorf("engine: hub server rank %d of %d nodes", h.Server, n)
	}
	if plan.Active != nil {
		if len(plan.Active) != n {
			return fmt.Errorf("engine: plan active set for %d nodes, have %d", len(plan.Active), n)
		}
		if !plan.Active[h.Server] {
			return fmt.Errorf("engine: hub plan deactivates the server")
		}
	}
	return nil
}

// chosenInto appends the participating worker ranks to dst in ascending
// order.
func (h Hub) chosenInto(dst []int, plan core.RoundPlan, n int) []int {
	for i := 0; i < n; i++ {
		if i == h.Server {
			continue
		}
		if plan.Active == nil || plan.Active[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Collective (exact all-reduce — PSGD)

// Collective is the exact all-reduce: after the round every node's Merge
// receives the element-wise sum of all nodes' outbound vectors as a single
// PeerMsg{From: -1}. For power-of-two fleets it runs recursive
// halving/doubling (reduce-scatter + all-gather), the butterfly equivalent
// of the classic ring all-reduce: every node sends and receives exactly
// 2·D·(n-1)/n values, matching Table I's ring cost, with every transfer a
// pairwise swap the Transport can carry. Other fleet sizes fall back to a
// complete all-gather (everyone swaps full vectors with everyone, n-1
// transfers of D values each), which is exact but costlier — callers wanting
// the bandwidth-optimal path should size fleets to powers of two.
type Collective struct{}

// Name implements Pattern.
func (Collective) Name() string { return "collective" }

// Validate implements Pattern: a collective needs every node present.
func (Collective) Validate(plan core.RoundPlan, n int) error {
	return requireAllActive(plan, n, "collective")
}

// segAfter returns the [lo, hi) segment of a D-length vector that rank owns
// after depth reduce-scatter halvings over n = 2^q nodes.
func segAfter(rank, depth, D, n int) (int, int) {
	lo, hi := 0, D
	for k := 0; k < depth; k++ {
		mask := n >> (k + 1)
		mid := lo + (hi-lo)/2
		if rank&mask == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// AllGather (complete-graph gossip of compressed payloads — TopK, QSGD)

// AllGather is the complete-graph gossip used by the compressed all-gather
// baselines: every node broadcasts one encoded payload to every other node,
// and Merge receives the element-wise sum of all *decoded* payloads
// (including the node's own, passed through its codec — lossy compressors
// must see their own loss, or the fleet would silently disagree on the
// aggregate).
type AllGather struct{}

// Name implements Pattern.
func (AllGather) Name() string { return "all-gather" }

// Validate implements Pattern.
func (AllGather) Validate(plan core.RoundPlan, n int) error {
	return requireAllActive(plan, n, "all-gather")
}

// requireAllActive rejects plans with dynamic membership for patterns whose
// shape has no notion of absence.
func requireAllActive(plan core.RoundPlan, n int, pattern string) error {
	if plan.Active == nil {
		return nil
	}
	if len(plan.Active) != n {
		return fmt.Errorf("engine: plan active set for %d nodes, have %d", len(plan.Active), n)
	}
	for i, a := range plan.Active {
		if !a {
			return fmt.Errorf("engine: %s pattern cannot run with node %d inactive", pattern, i)
		}
	}
	return nil
}
