package transport

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

// algoSpec is the shared tiny workload for the per-algorithm TCP tests.
func algoSpec(algo string, rounds int) TaskSpec {
	return TaskSpec{
		Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4,
		Hidden: []int{10}, Samples: 160, DataSeed: 5,
		LR: 0.1, Batch: 8, Compression: 4, LocalSteps: 1,
		Rounds: rounds, Seed: 3,
		Algo: algo, AlgoC: 8, QLevels: 4, Fraction: 0.5,
	}
}

// inProcReference runs the same recipe fully in-process and returns the
// reference global model and per-round traffic totals.
func inProcReference(t *testing.T, spec TaskSpec, n, rounds int) ([]float64, []int64) {
	t.Helper()
	alg := inProcAlgorithm(t, spec, n, 0)
	led := &engine.CountingLedger{}
	for r := 0; r < rounds; r++ {
		alg.Step(r, led)
	}
	return alg.Models()[0].FlatParams(nil), led.RoundBytes()
}

// inProcAlgorithm builds the recipe's in-process fleet at the given engine
// shard count (0 = one per CPU).
func inProcAlgorithm(t *testing.T, spec TaskSpec, n, runtimeShards int) algos.Algorithm {
	t.Helper()
	shards, _ := spec.BuildShards(n)
	fc := algos.FleetConfig{
		N: n,
		Factory: func() *nn.Model {
			m, err := spec.BuildModel()
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		Shards: shards,
		LR:     spec.LR,
		Batch:  spec.Batch,
		Seed:   spec.Seed,

		RuntimeShards: runtimeShards,
	}
	bw := netsim.RandomUniform(n, 1, 5, rng.New(2))
	var alg algos.Algorithm
	switch spec.AlgoName() {
	case "psgd":
		alg = algos.NewPSGD(fc)
	case "d-psgd":
		alg = algos.NewDPSGD(fc)
	case "topk-psgd":
		alg = algos.NewTopKPSGD(fc, spec.AlgoC)
	case "qsgd-psgd":
		alg = algos.NewQSGDPSGD(fc, spec.QLevels)
	case "dcd-psgd":
		alg = algos.NewDCDPSGD(fc, spec.AlgoC)
	case "ps-psgd":
		alg = algos.NewPSPSGD(fc, bw)
	case "fedavg":
		alg = algos.NewFedAvg(fc, bw, spec.Fraction, spec.LocalSteps)
	case "s-fedavg":
		alg = algos.NewSFedAvg(fc, bw, spec.Fraction, spec.LocalSteps, spec.AlgoC)
	default:
		t.Fatalf("no in-proc reference for %q", spec.AlgoName())
	}
	return alg
}

// TestBaselinesOverTCP deploys the baselines end to end over real loopback
// TCP — the collective butterfly (PSGD), ring neighborhood gossip (D-PSGD,
// DCD-PSGD), compressed all-gather (TopK, QSGD), and the hub with a real
// parameter-server process (PS-PSGD, and FedAvg/S-FedAvg with the
// fraction-sampled participation set riding in RoundMsg.Active) — and checks
// the collected global model is bit-identical to the in-process run of the
// same recipe, with identical per-round measured traffic. This is the
// acceptance contract: the TCP backend is not a SAPS special case.
func TestBaselinesOverTCP(t *testing.T) {
	const n, rounds = 4, 5
	for _, algo := range []string{"psgd", "d-psgd", "topk-psgd", "qsgd-psgd", "dcd-psgd", "ps-psgd", "fedavg", "s-fedavg"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			spec := algoSpec(algo, rounds)
			wantParams, wantBytes := inProcReference(t, spec, n, rounds)

			final, _, got := runTCPFleet(t, spec, n)
			if len(final) != len(wantParams) {
				t.Fatalf("collected %d params, want %d", len(final), len(wantParams))
			}
			for j := range final {
				if final[j] != wantParams[j] {
					t.Fatalf("param %d: tcp %v != in-proc %v", j, final[j], wantParams[j])
				}
			}
			if len(got) != len(wantBytes) {
				t.Fatalf("%d rounds accounted, want %d", len(got), len(wantBytes))
			}
			for r := range got {
				if got[r] != wantBytes[r] {
					t.Fatalf("round %d: tcp %d bytes != in-proc %d", r, got[r], wantBytes[r])
				}
			}
		})
	}
}

// runTCPFleet deploys spec over n trainers (plus a server process for the hub
// recipes) on loopback TCP and returns the model the coordinator collects,
// every process's final parameters by rank, and the per-round measured
// traffic.
func runTCPFleet(t *testing.T, spec TaskSpec, n int) (final []float64, byRank [][]float64, roundBytes []int64) {
	t.Helper()
	led := &engine.CountingLedger{}
	srv := &CoordinatorServer{
		N: n, Task: spec,
		BW:     netsim.RandomUniform(n, 1, 5, rng.New(2)),
		Ledger: led,
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	procs := spec.Recipe(n).Nodes()
	var wg sync.WaitGroup
	errs := make([]error, procs)
	params := make([][]float64, procs)
	workers := make([]*WorkerClient, procs)
	for i := 0; i < procs; i++ {
		workers[i] = &WorkerClient{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			params[i], errs[i] = workers[i].Run(addr, "127.0.0.1:0")
		}(i)
	}
	final, err = srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
	byRank = make([][]float64, procs)
	for i, w := range workers {
		byRank[w.Rank()] = params[i]
	}
	return final, byRank, led.RoundBytes()
}

// TestAllGatherRanksAgree: every rank of a PSGD-class fleet holds the same
// model after every round — topk-psgd and qsgd-psgd (the all-gather) and psgd
// at six ranks (the collective's all-gather fallback) — in process at one
// and two shards, and over TCP, whose six worker processes end on the
// in-process bits too. Each rank sums the gathered payloads in ascending
// sender rank, whichever executor runs it.
func TestAllGatherRanksAgree(t *testing.T) {
	const n, rounds = 6, 4
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d params, want %d", what, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: param %d is %v, want %v", what, j, got[j], want[j])
			}
		}
	}
	for _, algo := range []string{"psgd", "topk-psgd", "qsgd-psgd"} {
		spec := algoSpec(algo, rounds)
		var want []float64
		for _, shards := range []int{1, 2} {
			alg := inProcAlgorithm(t, spec, n, shards)
			led := &engine.CountingLedger{}
			for r := 0; r < rounds; r++ {
				alg.Step(r, led)
				models := alg.Models()
				rank0 := models[0].FlatParams(nil)
				for i, m := range models[1:] {
					sameBits(fmt.Sprintf("%s shards=%d round %d rank %d against rank 0", algo, shards, r, i+1), m.FlatParams(nil), rank0)
				}
				if r == rounds-1 && want == nil {
					want = rank0
				} else if r == rounds-1 {
					sameBits(fmt.Sprintf("%s shards=%d against shards=1", algo, shards), rank0, want)
				}
			}
		}
		_, byRank, _ := runTCPFleet(t, spec, n)
		for rank, params := range byRank {
			sameBits(fmt.Sprintf("%s tcp rank %d against in-process", algo, rank), params, want)
		}
	}
}
