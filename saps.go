// Package sapspsgd is a from-scratch Go reproduction of "Communication-
// Efficient Decentralized Learning with Sparsification and Adaptive Peer
// Selection" (Tang, Shi, Chu — ICDCS 2020): the SAPS-PSGD algorithm, the six
// baselines it is compared against, the network/dataset/neural-net
// substrates they train on, and the committed campaigns that regenerate
// every table and figure of the paper's evaluation.
//
// This root package is the public façade. The two ways to use the library:
//
//   - Simulation: build an algorithm with NewSAPS or one of the baseline
//     constructors and drive it with Run — all traffic and communication
//     time is accounted against a bandwidth environment such as
//     FourteenCities or RandomUniform. Run is the same round loop a
//     declarative scenario spec goes through, and a campaign
//     (cmd/campaign) is a grid over such specs: the paper's experiments
//     are the campaigns under campaigns/paper/.
//
//   - Deployment: run a CoordinatorServer and WorkerClients over TCP
//     (cmd/coordinator -algo <name>, cmd/worker); the identical engine
//     round logic exchanges real checksummed payload frames peer-to-peer, for
//     SAPS and every baseline alike (hub algorithms run the parameter
//     server as one extra worker process).
//
// Both run the same execution core: the round loop of Algorithms 1–3 lives
// once, in the engine layer (Engine, EngineTransport, EngineLedger), and
// the simulation/deployment paths differ only in which transport and ledger
// back it. See DESIGN.md §2 for the layering and for how to add a new
// backend.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the map from
// paper artifacts to campaigns and the paper-vs-measured results.
package sapspsgd

import (
	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/engine/memtransport"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/transport"
)

// Core algorithm (Algorithms 1–3 of the paper).
type (
	// Config carries the SAPS-PSGD hyperparameters (workers, compression
	// ratio c, learning rate, gossip thresholds).
	Config = core.Config
	// Coordinator is the lightweight tracker of Algorithm 1.
	Coordinator = core.Coordinator
	// GossipConfig holds Algorithm 3's B_thres / T_thres knobs.
	GossipConfig = gossip.Config
)

// Simulation harness.
type (
	// Algorithm is one distributed training scheme (SAPS or a baseline).
	Algorithm = algos.Algorithm
	// FleetConfig describes a set of identically initialized workers.
	FleetConfig = algos.FleetConfig
	// Membership says who is present each round of a NewSAPSDynamic run.
	Membership = algos.Membership
	// ChurnModel is Membership's random source: per-round leave and rejoin
	// probabilities with a floor on the active count.
	ChurnModel = algos.ChurnModel
	// InProc is the concrete in-process Algorithm behind every constructor
	// below; NewSAPSDynamic returns it as such for its ActiveHistory (how
	// many workers each round had present).
	InProc = algos.InProc
	// TrainConfig controls a simulated run: the round count and the
	// held-out set the averaged model is evaluated on every
	// max(1, rounds/20) rounds and after the last.
	TrainConfig = scenario.Loop
	// Record is one evaluation point (round, accuracy, traffic, time).
	Record = scenario.EvalPoint
	// Result is a full run's evaluation series plus its traffic ledger.
	Result = scenario.LoopResult
	// Bandwidth is a symmetric pairwise link-speed environment.
	Bandwidth = netsim.Bandwidth
	// Ledger accounts bytes and simulated communication time.
	Ledger = netsim.Ledger
	// Dataset is an in-memory labeled image collection.
	Dataset = dataset.Dataset
	// Model is a neural network with a flat parameter vector.
	Model = nn.Model
	// Shape is image geometry (channels × height × width).
	Shape = nn.Shape
)

// TCP deployment.
type (
	// TaskSpec tells workers what to train (broadcast at registration).
	TaskSpec = transport.TaskSpec
	// CoordinatorServer drives training over TCP.
	CoordinatorServer = transport.CoordinatorServer
	// WorkerClient is the TCP worker process.
	WorkerClient = transport.WorkerClient
)

// Engine layer: the canonical round loop and its pluggable backends
// (DESIGN.md §2). An algorithm is a planner + exchange pattern + codec
// composition over Nodes; the seven baselines in this package are exactly
// such compositions.
type (
	// Engine runs the round loop over an in-process fleet, one executor
	// goroutine per shard of ranks.
	Engine = engine.Engine
	// EngineOptions configures an Engine (nodes, codecs, pattern, planner,
	// transport).
	EngineOptions = engine.Options
	// EngineTransport is the one-way peer-to-peer data plane (Send/Recv) a
	// backend implements.
	EngineTransport = engine.Transport
	// EngineLedger is the traffic/time accounting a backend charges.
	EngineLedger = engine.Ledger
	// CountingLedger tallies exact per-round and per-worker byte totals.
	CountingLedger = engine.CountingLedger
	// RoundStats summarizes one engine round.
	RoundStats = engine.RoundStats
	// EngineNode is one participant's algorithm state machine.
	EngineNode = engine.Node
)

// NewEngine builds the in-process engine over the given options; leave
// Options.Transport nil for the in-memory default (NewMemTransport), and
// charge a Ledger over a bandwidth environment for simulated time.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// NewMemTransport returns the in-process rendezvous transport for n workers.
func NewMemTransport(n int) EngineTransport { return memtransport.NewHub(n) }

// DefaultConfig returns the paper's hyperparameters (c = 100, one local SGD
// step per round) for the given worker count.
func DefaultConfig(workers int) Config { return core.DefaultConfig(workers) }

// NewCoordinator builds the Algorithm 1 coordinator over a bandwidth
// environment.
func NewCoordinator(bw *Bandwidth, cfg Config) *Coordinator {
	return core.NewCoordinator(bw, cfg)
}

// NewSAPS assembles the full SAPS-PSGD algorithm (coordinator + n workers)
// ready for the Run harness.
func NewSAPS(fc FleetConfig, bw *Bandwidth, cfg Config) Algorithm {
	return algos.NewSAPS(fc, bw, cfg)
}

// NewSAPSDynamic is SAPS-PSGD under dynamic membership: each round only the
// workers m says are present train and communicate, and the coordinator
// re-runs the peer selection over exactly those (the robustness setting the
// paper motivates: workers join and leave at random).
func NewSAPSDynamic(fc FleetConfig, bw *Bandwidth, cfg Config, m Membership) *InProc {
	return algos.NewSAPSDynamic(fc, bw, cfg, m)
}

// NewRandomChoose is SAPS-PSGD with uniformly random peer matching instead
// of adaptive selection — the paper's RandomChoose ablation.
func NewRandomChoose(fc FleetConfig, bw *Bandwidth, cfg Config) Algorithm {
	return algos.NewRandomChoose(fc, bw, cfg)
}

// Baselines: the six algorithms the paper compares against (Table I).
func NewPSGD(fc FleetConfig) Algorithm { return algos.NewPSGD(fc) }

// NewTopKPSGD is PSGD with Top-k sparsified gradients and error feedback.
func NewTopKPSGD(fc FleetConfig, c float64) Algorithm { return algos.NewTopKPSGD(fc, c) }

// NewFedAvg is centralized federated averaging.
func NewFedAvg(fc FleetConfig, bw *Bandwidth, fraction float64, localSteps int) Algorithm {
	return algos.NewFedAvg(fc, bw, fraction, localSteps)
}

// NewSFedAvg is FedAvg with sparse random structured uploads.
func NewSFedAvg(fc FleetConfig, bw *Bandwidth, fraction float64, localSteps int, c float64) Algorithm {
	return algos.NewSFedAvg(fc, bw, fraction, localSteps, c)
}

// NewDPSGD is decentralized SGD on the static ring.
func NewDPSGD(fc FleetConfig) Algorithm { return algos.NewDPSGD(fc) }

// NewDCDPSGD is difference-compressed decentralized SGD on the ring.
func NewDCDPSGD(fc FleetConfig, c float64) Algorithm { return algos.NewDCDPSGD(fc, c) }

// NewPSPSGD is classical parameter-server PSGD (dense push/pull each round).
func NewPSPSGD(fc FleetConfig, bw *Bandwidth) Algorithm { return algos.NewPSPSGD(fc, bw) }

// NewQSGDPSGD is PSGD with QSGD-quantized gradient all-gather.
func NewQSGDPSGD(fc FleetConfig, levels int) Algorithm { return algos.NewQSGDPSGD(fc, levels) }

// Run trains any Algorithm over the bandwidth environment, evaluating the
// worker-averaged model periodically. It is the round loop every scenario
// spec runs through.
func Run(alg Algorithm, bw *Bandwidth, cfg TrainConfig) Result {
	return scenario.RunLoop(alg, netsim.NewLedger(bw), cfg)
}

// FourteenCities returns the paper's measured 14-city bandwidth matrix
// (Fig. 1) in MB/s.
func FourteenCities() *Bandwidth { return netsim.FourteenCities() }

// RandomUniform returns an n-worker environment with link speeds uniform in
// (lo, hi] MB/s, as in the paper's 32-worker experiments.
func RandomUniform(n int, lo, hi float64, seed uint64) *Bandwidth {
	return netsim.RandomUniform(n, lo, hi, rng.New(seed))
}

// MNISTLike generates the synthetic 28×28 10-class task standing in for
// MNIST (train and validation splits).
func MNISTLike(train, valid int, seed uint64) (tr, va *Dataset) {
	return dataset.MNISTLike(train, valid, seed)
}

// CIFARLike generates the synthetic 32×32×3 10-class task standing in for
// CIFAR-10.
func CIFARLike(train, valid int, seed uint64) (tr, va *Dataset) {
	return dataset.CIFARLike(train, valid, seed)
}

// PartitionIID shards a dataset across n workers uniformly.
func PartitionIID(d *Dataset, n int, seed uint64) []*Dataset {
	return dataset.PartitionIID(d, n, seed)
}

// PartitionByLabel shards a dataset non-IID (label-sorted shards, federated
// style).
func PartitionByLabel(d *Dataset, n, shardsPerWorker int, seed uint64) []*Dataset {
	return dataset.PartitionByLabel(d, n, shardsPerWorker, seed)
}

// NewMNISTCNN, NewCIFARCNN and NewResNet build the paper's three model
// families; width 1.0 is paper scale.
func NewMNISTCNN(in Shape, classes int, width float64, seed uint64) *Model {
	return nn.NewMNISTCNN(in, classes, width, seed)
}

// NewCIFARCNN builds the paper's CIFAR10-CNN family.
func NewCIFARCNN(in Shape, classes int, width float64, seed uint64) *Model {
	return nn.NewCIFARCNN(in, classes, width, seed)
}

// NewResNet builds a CIFAR-style ResNet-(6k+2); blocksPerStage 3 = ResNet-20.
func NewResNet(in Shape, classes, blocksPerStage int, width float64, seed uint64) *Model {
	return nn.NewResNet(in, classes, blocksPerStage, width, seed)
}

// NewMLP builds a plain multilayer perceptron.
func NewMLP(inDim int, hidden []int, classes int, seed uint64) *Model {
	return nn.NewMLP(inDim, hidden, classes, seed)
}
