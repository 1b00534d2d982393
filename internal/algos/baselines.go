package algos

import (
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
)

// The paper's comparators, each its recipe on the chassis New assembles.

// NewPSGD is synchronous data-parallel SGD over an exact all-reduce of dense
// gradients (Eq. (1) of the paper): every round all n workers average their
// minibatch gradients exactly and take the same step, so all models stay
// bit-identical. Composed as Collective pattern + Dense codec: power-of-two
// fleets run the bandwidth-optimal recursive halving/doubling butterfly
// (each worker ships exactly 2·N·(n-1)/n values per round — the classic
// ring-all-reduce cost of Table I — and receives the same), other sizes a
// complete all-gather. Both directions of every transfer are charged with
// measured codec bytes.
func NewPSGD(fc FleetConfig) Algorithm {
	return newOver(fc, Recipe{Algo: "psgd"}, nil, gossip.Config{}, Membership{})
}

// NewTopKPSGD is PSGD with Top-k gradient sparsification and error feedback
// (DGC-style) at compression ratio c (the paper uses c = 1000): each worker
// transmits only its N/c largest-magnitude compensated gradient entries,
// but must all-gather every other worker's sparse gradient, so per-worker
// traffic stays O(n·N/c). Composed as AllGather pattern + TopK codec
// (explicit 32-bit indices: 8 wire bytes per surviving value); every worker
// applies the average of the *decoded* gradients, its own included.
func NewTopKPSGD(fc FleetConfig, c float64) Algorithm {
	return newOver(fc, Recipe{Algo: "topk-psgd", C: c}, nil, gossip.Config{}, Membership{})
}

// NewQSGDPSGD is an extension baseline (the paper's related work positions
// sparsification against quantization): PSGD with QSGD-quantized gradients
// all-gathered among workers, at the given level count (levels=1 is ternary
// TernGrad-style, 127 is 8-bit). Quantization caps compression at 32/bits
// per value, so even aggressive 4-level QSGD cannot approach the mask
// sparsifier's 100× — campaigns/paper/ablation-quantization.json quantifies
// the gap. Composed as AllGather pattern + QSGD codec (4-byte norm +
// bit-packed level codes, charged at the exact packed size).
func NewQSGDPSGD(fc FleetConfig, levels int) Algorithm {
	return newOver(fc, Recipe{Algo: "qsgd-psgd", Levels: levels}, nil, gossip.Config{}, Membership{})
}

// NewDPSGD is decentralized parallel SGD (Lian et al.) on the static ring
// topology the paper evaluates: each round worker i averages the full models
// of its two ring neighbors with its own (weights 1/3) and then takes a
// local gradient step. Composed as Neighborhood pattern (ring adjacency) +
// Dense codec: every worker ships its dense model to both neighbors each
// round, and both directions are charged with measured bytes.
func NewDPSGD(fc FleetConfig) Algorithm {
	return newOver(fc, Recipe{Algo: "d-psgd"}, nil, gossip.Config{}, Membership{})
}

// NewDCDPSGD is difference-compressed decentralized SGD (Tang et al.) on the
// ring at compression ratio c: every worker maintains public replicas x̂ of
// its neighbors' models and transmits only a Top-k compressed difference
// between its model and its own replica each round, so replicas track the
// true models with bounded error. The paper sets c = 4 — larger ratios
// diverge, which our integration tests reproduce. Composed as Neighborhood
// pattern with IncludeSelf (the node applies its own lossy delta to its own
// replica, keeping all copies of x̂ identical) + TopK codec without error
// feedback.
func NewDCDPSGD(fc FleetConfig, c float64) Algorithm {
	return newOver(fc, Recipe{Algo: "dcd-psgd", C: c}, nil, gossip.Config{}, Membership{})
}

// NewPSPSGD is the classical parameter-server PSGD of Table I's first row:
// every round each worker pulls the fresh dense model, computes one
// minibatch gradient on it, and pushes the dense gradient; the server
// averages and updates the global model. Distinct from FedAvg (which
// averages models after multiple local steps) and from PSGD all-reduce
// (which has no server). Composed as Hub pattern (the server is node rank n)
// + Dense codecs both directions; netsim charges land on the server links
// via ServerTransfer, exactly as the paper models the centralized baselines.
func NewPSPSGD(fc FleetConfig, bw *netsim.Bandwidth) Algorithm {
	return newOver(fc, Recipe{Algo: "ps-psgd"}, bw, gossip.Config{}, Membership{})
}

// NewFedAvg is the centralized federated averaging baseline (McMahan et
// al.): each round a fraction of workers (the paper uses 0.5) pulls the
// server model, runs localSteps local minibatch steps, and pushes its full
// model back; the server averages. Composed as Hub pattern (pull → train →
// push; the per-round chosen set is the plan's active set, drawn by the
// fraction planner) + Dense codecs.
func NewFedAvg(fc FleetConfig, bw *netsim.Bandwidth, fraction float64, localSteps int) Algorithm {
	return newOver(fc, Recipe{Algo: "fedavg", Fraction: fraction, LocalSteps: localSteps}, bw, gossip.Config{}, Membership{})
}

// NewSFedAvg is FedAvg with sparse random structured uploads (Konečný et
// al.) at compression ratio c (the paper uses c = 100, fraction 0.5): the
// downstream model stays dense, but each chosen worker uploads only a
// random N/c subset of its model delta with explicit indices (RandomK
// codec), and the server applies count-normalized sparse aggregation — each
// received coordinate is averaged over the workers that actually reported
// it.
func NewSFedAvg(fc FleetConfig, bw *netsim.Bandwidth, fraction float64, localSteps int, c float64) Algorithm {
	return newOver(fc, Recipe{Algo: "s-fedavg", Fraction: fraction, LocalSteps: localSteps, C: c}, bw, gossip.Config{}, Membership{})
}
