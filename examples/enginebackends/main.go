// Engine backends: the same SAPS-PSGD configuration executed three times —
// over the in-memory transport, the same transport charged against a
// simulated-bandwidth ledger, and a real TCP cluster on loopback — by the one
// canonical engine round loop.
// The run prints each backend's final model checksum and per-round traffic,
// which agree bit-for-bit and byte-for-byte (DESIGN.md §2).
//
//	go run ./examples/enginebackends
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	saps "sapspsgd"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/transport"
)

const (
	n      = 4
	rounds = 30
)

func spec() saps.TaskSpec {
	return saps.TaskSpec{
		Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4, Hidden: []int{16},
		Samples: 512, DataSeed: 21,
		LR: 0.05, Batch: 16, Compression: 10, LocalSteps: 1,
		Rounds: rounds, Seed: 9,
	}
}

// thresholds are Algorithm 3's knobs, the one thing the task leaves to the
// coordinator.
var thresholds = gossip.Config{BThres: 0, TThres: 10}

func env() *netsim.Bandwidth { return netsim.RandomUniform(n, 1, 5, rng.New(4)) }

// checksum folds a parameter vector into one printable number.
func checksum(params []float64) float64 {
	sum := 0.0
	for _, v := range params {
		sum += math.Abs(v)
	}
	return sum
}

// runInProc drives the engine over an in-process transport and returns the
// rank-0 parameters and total traffic.
func runInProc(name string, tr saps.EngineTransport, inner saps.EngineLedger) ([]float64, int64) {
	// The recipe assembly every deployment performs: each TCP worker builds
	// its one node and the codec table from the same recipe.
	s := spec()
	rec := s.Recipe(n)
	shards, _ := s.BuildShards(n)
	nodes := make([]saps.EngineNode, n)
	var model0 *saps.Model
	for i := range nodes {
		model, err := s.BuildModel()
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			model0 = model
		}
		nodes[i] = rec.NewNode(i, model, shards[i], nil)
	}
	eng := saps.NewEngine(saps.EngineOptions{
		Nodes:     nodes,
		Codecs:    rec.Codecs(model0.ParamCount()),
		Pattern:   rec.Pattern(),
		Planner:   rec.Planner(env(), thresholds),
		Transport: tr,
	})
	defer eng.Close()
	led := &saps.CountingLedger{Inner: inner}
	for t := 0; t < rounds; t++ {
		if _, err := eng.Step(t, led); err != nil {
			log.Fatalf("%s round %d: %v", name, t, err)
		}
	}
	return model0.FlatParams(nil), led.TotalBytes()
}

// runTCP drives the identical configuration as a real loopback TCP cluster.
func runTCP() ([]float64, int64) {
	led := &engine.CountingLedger{}
	srv := &saps.CoordinatorServer{N: n, Task: spec(), BW: env(), Gossip: thresholds, Ledger: led}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &transport.WorkerClient{}
			if _, err := wc.Run(addr, "127.0.0.1:0"); err != nil {
				log.Printf("worker: %v", err)
			}
		}()
	}
	params, err := srv.Run()
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}
	return params, led.TotalBytes()
}

func main() {
	memParams, memBytes := runInProc("memtransport", saps.NewMemTransport(n), nil)
	fmt.Printf("%-14s checksum %.9f   traffic %6d B\n", "memtransport", checksum(memParams), memBytes)

	simLed := netsim.NewLedger(env())
	simParams, simBytes := runInProc("netsim ledger", saps.NewMemTransport(n), simLed)
	fmt.Printf("%-14s checksum %.9f   traffic %6d B   simulated comm time %.2fs\n",
		"netsim ledger", checksum(simParams), simBytes, simLed.TotalTime())

	tcpParams, tcpBytes := runTCP()
	fmt.Printf("%-14s checksum %.9f   traffic %6d B\n", "tcptransport", checksum(tcpParams), tcpBytes)

	for i, v := range memParams {
		if simParams[i] != v || tcpParams[i] != v {
			log.Fatalf("backends diverged at parameter %d", i)
		}
	}
	if memBytes != simBytes || memBytes != tcpBytes {
		log.Fatalf("traffic diverged: mem %d, sim %d, tcp %d", memBytes, simBytes, tcpBytes)
	}
	fmt.Println("\nall three backends: bit-identical models, byte-identical traffic ✓")
}
