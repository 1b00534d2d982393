// Package engine owns the canonical distributed-training execution core:
// Algorithm 1 (coordinator round loop), Algorithm 2 (worker round), and —
// via the pluggable Planner — Algorithm 3 (adaptive peer selection). Since
// the Pattern/Codec generalization the same core drives not only SAPS-PSGD
// but every baseline the paper compares against: an algorithm is a
// composition of
//
//   - a Planner producing the per-round control message (matching, seed,
//     active set);
//   - a Pattern describing who talks to whom within the round (pairwise
//     matched gossip, static neighborhood, hub fan-in, exact all-reduce,
//     complete all-gather);
//   - per-rank Codecs turning model/gradient vectors into exact wire bytes
//     (dense, shared-seed masked, top-k + error feedback, QSGD, random-k);
//   - Nodes holding the algorithm's local state transition.
//
// The engine talks to the world only through two small interfaces:
//
//   - Transport: the peer-to-peer payload exchange (data plane);
//   - Ledger: traffic and communication-time accounting (clock), charged
//     from the bytes the codecs actually produced — never from analytic
//     formulas.
//
// Two transports run the identical round logic, the in-process one under
// either ledger:
//
//   - memtransport: in-process per-pair FIFOs. With the zero-time
//     CountingLedger it is the pure-algorithm backend; charged against a
//     netsim bandwidth matrix (*netsim.Ledger satisfies Ledger) it is the
//     simulated backend behind the internal/algos simulations, reproducing
//     the paper's byte- and second-accurate simulation;
//   - internal/transport: real TCP — WorkerClient runs WorkerRound over
//     one-way peer frames (frame.go) and CoordinatorServer runs Driver over
//     its control conns.
//
// See DESIGN.md §2 for the layering and for how to add a new algorithm or
// backend.
package engine

import (
	"slices"

	"sapspsgd/internal/core"
)

// Transport is a rank's handle to the one-way data plane. In both methods
// self is the calling rank — the sender in Send, the receiver in Recv — and
// peer is the other end.
//
// Send deposits payload for peer and returns without waiting for anything in
// return: both ends of a pair Send before either Recvs, so a Send that
// blocked on the receiver reaching its Recv would deadlock. Recv blocks until
// the matching deposit from peer arrives. Deposits of one directed pair are
// consumed in the order they were sent: the in-process hub is a FIFO per
// directed pair, and a network backend whose frames can overtake each other
// numbers them per (round, sender→receiver) and matches on that number, not
// on arrival order. A zero-length payload is a deposit like any other.
// Implementations must support concurrent calls from distinct ranks.
//
// Send must not retain payload after it returns: the sender may rewrite the
// buffer as soon as its next phase. A socket satisfies that by construction.
// memtransport does not — it hands the slice to the receiver by reference —
// and is sound only under the sharded runtime, whose barriers keep the
// buffer unwritten until the receiver has consumed it (PhaseFuser).
//
// Liveness contract for custom backends: when a peer dies or the round is
// cancelled, a blocked Recv must return an error rather than wait forever —
// the round barrier waits for every rank.
type Transport interface {
	Send(round, self, peer int, payload []float64) error
	Recv(round, self, peer int) ([]float64, error)
}

// Ledger is the engine's clock and traffic account. *netsim.Ledger satisfies
// it (bandwidth-modelled simulated time); CountingLedger is the zero-time
// variant for in-memory and real-network runs. Implementations need not be
// safe for concurrent use: the Driver charges exchanges centrally, once per
// communicating pair per round, from the coordinator loop.
type Ledger interface {
	// Exchange records a bidirectional transfer between nodes i and j in
	// the current round: i sends sendBytes to j and receives recvBytes.
	Exchange(i, j int, sendBytes, recvBytes int64)
	// EndRound closes the current round and returns its wall time in
	// seconds (0 for ledgers without a time model).
	EndRound() float64
}

// Planner produces the per-round control message (W_t, t, s) — Algorithm 1
// line 6, with Algorithm 3 inside. *core.Coordinator satisfies it; the
// baselines plug in static or fraction-sampling planners.
type Planner interface {
	Plan(t int) core.RoundPlan
}

// PlannerFunc adapts a function to the Planner interface.
type PlannerFunc func(t int) core.RoundPlan

// Plan implements Planner.
func (f PlannerFunc) Plan(t int) core.RoundPlan { return f(t) }

// PairTraffic is one unordered pair's measured round traffic, built from the
// bytes each side's codec actually encoded (I < J; IToJ is what I shipped).
type PairTraffic struct {
	I, J       int
	IToJ, JToI int64
}

// ControlReport aggregates one executed round across all nodes.
type ControlReport struct {
	// MeanLoss is the mean local training loss over nodes that trained.
	MeanLoss float64
	// PayloadLen is the largest outbound payload length (in wire words)
	// any node produced — the shared-mask population count under the
	// masked codec.
	PayloadLen int
	// Pairs is the round's measured traffic, one entry per communicating
	// unordered pair, ordered by (I, J).
	Pairs []PairTraffic
}

// Control is the coordinator's channel to its nodes: RunRound delivers the
// plan to every node, executes the pattern's phases on each, and blocks until
// all complete (the synchronous round barrier of Algorithm 1 line 7).
type Control interface {
	RunRound(plan core.RoundPlan) (ControlReport, error)
}

// RoundStats summarizes one completed round.
type RoundStats struct {
	// Plan is the control message the round ran under.
	Plan core.RoundPlan
	// PayloadLen is the number of wire words in the largest payload any
	// node transmitted (the shared-mask population count for SAPS; 0 when
	// nobody communicated).
	PayloadLen int
	// Loss is the mean local training loss over participating nodes.
	Loss float64
	// Bytes is the round's total measured wire traffic, each payload counted
	// once. A ledger's totals and the engine_wire_bytes_total counter count
	// it at its sender and its receiver, so they move by 2 × Bytes.
	Bytes int64
	// CommSeconds is the ledger's simulated round wall time (0 for ledgers
	// without a time model).
	CommSeconds float64
}

// ReportFold folds a round's rank-indexed node reports into its control
// report — one of the two deterministic commit points (the other is the
// Driver's rank-ordered ledger charge), and the one fold every Control with
// nodes returns: the shard runner and the TCP coordinator alike. The pair
// index map and the output slice persist across rounds, so a steady-state
// fold performs no heap allocations. The zero value is ready; not safe for
// concurrent use.
type ReportFold struct {
	idx   map[uint64]int
	pairs []PairTraffic
}

// Fold returns the report of one executed round: rank-ordered flow
// aggregation, the loss mean over the nodes that trained, and the largest
// payload. Trained, not the loss value, decides who is in the mean, so a
// trainer whose loss diverged to NaN makes the mean NaN instead of dropping
// out of it. reports is rank-indexed; entries for absent nodes are zero
// values.
// The report's Pairs alias the fold's pooled storage and stay valid until the
// next Fold — the Driver consumes them before planning the next round.
func (a *ReportFold) Fold(reports []NodeReport) ControlReport {
	rep := ControlReport{Pairs: a.aggregate(reports)}
	sum, k := 0.0, 0
	for _, nr := range reports {
		if nr.PayloadLen > rep.PayloadLen {
			rep.PayloadLen = nr.PayloadLen
		}
		if nr.Trained {
			sum += nr.Loss
			k++
		}
	}
	if k > 0 {
		rep.MeanLoss = sum / float64(k)
	}
	return rep
}

// aggregate folds per-node sender-attributed flows into per-pair traffic
// ordered by (I, J), using only each sender's own measurement (both endpoints
// compute WireBytes over the same words, so the receiver's number is
// redundant).
func (a *ReportFold) aggregate(reports []NodeReport) []PairTraffic {
	if a.idx == nil {
		a.idx = make(map[uint64]int)
	} else {
		clear(a.idx)
	}
	a.pairs = a.pairs[:0]
	for rank, rep := range reports {
		for _, f := range rep.Flows {
			if f.Sent == 0 && f.Recv == 0 {
				continue
			}
			i, j := min(rank, f.Peer), max(rank, f.Peer)
			key := uint64(uint32(i))<<32 | uint64(uint32(j))
			p, ok := a.idx[key]
			if !ok {
				p = len(a.pairs)
				a.idx[key] = p
				a.pairs = append(a.pairs, PairTraffic{I: i, J: j})
			}
			if rank < f.Peer {
				a.pairs[p].IToJ += f.Sent
			} else {
				a.pairs[p].JToI += f.Sent
			}
		}
	}
	// Drop pairs whose sender-attributed bytes net to zero (both endpoints
	// reported empty sends), matching the historical output exactly.
	w := 0
	for _, p := range a.pairs {
		if p.IToJ == 0 && p.JToI == 0 {
			continue
		}
		a.pairs[w] = p
		w++
	}
	a.pairs = a.pairs[:w]
	slices.SortFunc(a.pairs, func(x, y PairTraffic) int {
		if x.I != y.I {
			return x.I - y.I
		}
		return x.J - y.J
	})
	return a.pairs
}
