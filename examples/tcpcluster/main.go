// TCP cluster: the deployable system end to end in one process — a real
// coordinator server and four real worker clients over loopback TCP (gob
// control messages, raw-word peer frames), training the synthetic task with
// sparsified peer exchanges.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"sync"

	saps "sapspsgd"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

func main() {
	const n = 4
	spec := saps.TaskSpec{
		Arch: "mnist-cnn", C: 1, H: 16, W: 16, Classes: 10, Width: 0.25,
		Samples: 1024, DataSeed: 5,
		LR: 0.05, Batch: 16, Compression: 50, LocalSteps: 1,
		Rounds: 60, Seed: 3,
	}
	srv := &saps.CoordinatorServer{
		N:      n,
		Task:   spec,
		BW:     netsim.RandomUniform(n, 1, 5, rng.New(2)),
		Gossip: gossip.Config{BThres: 2, TThres: 5},
		Logf:   log.Printf,
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("coordinator on %s", addr)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &saps.WorkerClient{}
			if _, err := wc.Run(addr, "127.0.0.1:0"); err != nil {
				log.Printf("worker error: %v", err)
			}
		}()
	}
	params, err := srv.Run()
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate the collected model on the validation split every worker can
	// regenerate locally.
	model, err := spec.BuildModel()
	if err != nil {
		log.Fatal(err)
	}
	model.SetFlatParams(params)
	_, valid := spec.BuildShards(n)
	loss, acc := nn.EvaluateDataset(model, valid, 128)
	fmt.Printf("\ncollected model: %d params, validation loss %.4f, accuracy %.2f%%\n",
		model.ParamCount(), loss, 100*acc)
}
