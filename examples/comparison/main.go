// Comparison: the paper's seven-algorithm evaluation (Fig. 3/4/6, Tables
// III/IV) on a laptop-scale workload — 16 workers, scaled MNIST-CNN,
// identical data and initialization for every algorithm, each with the
// compression ratio of the paper's §IV-A. The committed campaign
// campaigns/paper/convergence-mnist.json is the same comparison as a
// resumable grid with figure artifacts.
//
//	go run ./examples/comparison
package main

import (
	"fmt"

	saps "sapspsgd"
)

func main() {
	const workers, rounds, target = 16, 120, 0.85
	train, valid := saps.MNISTLike(2048, 512, 11)
	in := saps.Shape{C: 1, H: 28, W: 28}
	fc := saps.FleetConfig{
		N:       workers,
		Factory: func() *saps.Model { return saps.NewMNISTCNN(in, 10, 0.25, 7) },
		Shards:  saps.PartitionIID(train, workers, 7),
		LR:      0.05,
		Batch:   16,
		Seed:    7,
	}
	bw := saps.RandomUniform(workers, 0, 5, 7)
	cfg := saps.DefaultConfig(workers)
	cfg.Batch = fc.Batch
	fmt.Printf("scaled MNIST-CNN: %d workers, %d rounds\n\n", workers, rounds)

	fmt.Println("| Algorithm | Final accuracy | MB/worker | Comm time (s) | MB / s to reach 85% |")
	fmt.Println("|-----------|----------------|-----------|---------------|---------------------|")
	for _, alg := range []saps.Algorithm{
		saps.NewPSGD(fc),
		saps.NewTopKPSGD(fc, 1000),
		saps.NewFedAvg(fc, bw, 0.5, 4),
		saps.NewSFedAvg(fc, bw, 0.5, 4, 100),
		saps.NewDPSGD(fc),
		saps.NewDCDPSGD(fc, 4),
		saps.NewSAPS(fc, bw, cfg),
	} {
		res := saps.Run(alg, bw, saps.TrainConfig{Rounds: rounds, Valid: valid})
		f := res.Records.Final()
		reached := "not reached"
		if r, ok := res.Records.FirstReaching(target); ok {
			reached = fmt.Sprintf("%.3f MB / %.3f s", r.TrafficMB, r.TimeSec)
		}
		fmt.Printf("| %-9s | %13.2f%% | %9.3f | %13.3f | %-19s |\n",
			res.Algorithm, 100*f.ValAcc, f.TrafficMB, f.TimeSec, reached)
	}
}
