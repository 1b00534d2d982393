// Churn: SAPS-PSGD under dynamic membership — the robustness scenario the
// paper motivates (workers join/leave due to battery, connectivity, ...).
// Compares a stable 16-worker run against one where each worker drops out
// with 10% probability per round and rejoins with 50%.
//
//	go run ./examples/churn
package main

import (
	"fmt"

	saps "sapspsgd"
)

func main() {
	const workers, rounds = 16, 150
	train, valid := saps.MNISTLike(2048, 512, 21)
	shards := saps.PartitionIID(train, workers, 2)
	in := saps.Shape{C: 1, H: 28, W: 28}
	fc := saps.FleetConfig{
		N:       workers,
		Factory: func() *saps.Model { return saps.NewMNISTCNN(in, 10, 0.25, 7) },
		Shards:  shards,
		LR:      0.05,
		Batch:   16,
		Seed:    1,
	}
	cfg := saps.DefaultConfig(workers)
	cfg.Batch = 16
	bw := saps.RandomUniform(workers, 0, 5, 3)
	trainCfg := saps.TrainConfig{Rounds: rounds, Valid: valid}

	stable := saps.Run(saps.NewSAPS(fc, bw, cfg), bw, trainCfg)
	churned := saps.NewSAPSDynamic(fc, bw, cfg, saps.Membership{Churn: &saps.ChurnModel{
		LeaveProb: 0.10,
		JoinProb:  0.50,
		MinActive: workers / 2,
	}})
	churnRes := saps.Run(churned, bw, trainCfg)

	minActive, maxActive := workers, 0
	for _, a := range churned.ActiveHistory() {
		if a < minActive {
			minActive = a
		}
		if a > maxActive {
			maxActive = a
		}
	}
	fmt.Printf("stable : final accuracy %.2f%%  traffic %.3f MB/worker\n",
		100*stable.Records.Final().ValAcc, stable.Records.Final().TrafficMB)
	fmt.Printf("churned: final accuracy %.2f%%  traffic %.3f MB/worker  (active workers ranged %d..%d of %d)\n",
		100*churnRes.Records.Final().ValAcc, churnRes.Records.Final().TrafficMB, minActive, maxActive, workers)
	fmt.Println("\nNo recovery protocol is needed: returning workers re-synchronize through the masked gossip itself.")
}
