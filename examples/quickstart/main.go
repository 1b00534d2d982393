// Quickstart: train 8 SAPS-PSGD workers on the synthetic MNIST-like task in
// simulation and print the accuracy / traffic series.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	saps "sapspsgd"
)

func main() {
	const (
		workers = 8
		rounds  = 150
	)

	// Synthetic stand-in for MNIST (28×28, 10 classes), sharded IID.
	train, valid := saps.MNISTLike(2048, 512, 42)
	shards := saps.PartitionIID(train, workers, 1)

	// The paper's MNIST-CNN at quarter width so a laptop trains it in
	// seconds; every worker starts from identical parameters.
	in := saps.Shape{C: 1, H: 28, W: 28}
	factory := func() *saps.Model { return saps.NewMNISTCNN(in, 10, 0.25, 7) }

	// The paper's hyperparameters: compression ratio c=100, single-peer
	// masked gossip, adaptive matching over a random (0,5] MB/s fabric.
	cfg := saps.DefaultConfig(workers)
	cfg.Compression = 100
	cfg.Batch = 16
	bw := saps.RandomUniform(workers, 0, 5, 3)

	alg := saps.NewSAPS(saps.FleetConfig{
		N:       workers,
		Factory: factory,
		Shards:  shards,
		LR:      cfg.LR,
		Batch:   cfg.Batch,
		Seed:    1,
	}, bw, cfg)

	fmt.Printf("SAPS-PSGD: %d workers, %d params, c=%.0f\n",
		workers, factory().ParamCount(), cfg.Compression)
	res := saps.Run(alg, bw, saps.TrainConfig{Rounds: rounds, Valid: valid})

	fmt.Println("round  acc      traffic/worker  comm-time")
	for _, r := range res.Records {
		fmt.Printf("%5d  %6.2f%%  %8.3f MB     %7.3f s\n",
			r.Round, 100*r.ValAcc, r.TrafficMB, r.TimeSec)
	}
	final := res.Records.Final()
	fmt.Printf("\nfinal: %.2f%% accuracy with %.3f MB per worker (dense model is %.3f MB per exchange)\n",
		100*final.ValAcc, final.TrafficMB, float64(factory().ParamCount())*4/1e6)
}
