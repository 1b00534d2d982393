// Geo-distributed scenario: 14 workers placed at the paper's 14 measured
// data-center locations (Fig. 1). Compares SAPS-PSGD's adaptive peer
// selection with random matching and the static ring, both in matched
// bandwidth (Fig. 5a) and in end-to-end communication time for the same
// accuracy.
//
//	go run ./examples/geodistributed
package main

import (
	"fmt"

	saps "sapspsgd"
)

func main() {
	bw := saps.FourteenCities()
	const workers = 14

	fmt.Println("Fig. 1 environment: 14 cities, min-symmetrized bandwidths (MB/s)")
	fmt.Printf("mean link bandwidth: %.3f MB/s\n\n", bw.MeanBandwidth())

	train, valid := saps.MNISTLike(1400, 350, 9)
	shards := saps.PartitionIID(train, workers, 2)
	in := saps.Shape{C: 1, H: 28, W: 28}
	factory := func() *saps.Model { return saps.NewMNISTCNN(in, 10, 0.25, 7) }

	cfg := saps.DefaultConfig(workers)
	cfg.Compression = 100
	cfg.Batch = 16
	cfg.Gossip = saps.GossipConfig{BThres: 4, TThres: 10} // prefer links ≥ 4 MB/s

	fc := saps.FleetConfig{N: workers, Factory: factory, Shards: shards, LR: cfg.LR, Batch: cfg.Batch, Seed: 1}
	run := func(alg saps.Algorithm) saps.Result {
		return saps.Run(alg, bw, saps.TrainConfig{Rounds: 120, Valid: valid})
	}

	adaptive := run(saps.NewSAPS(fc, bw, cfg))
	fmt.Println("SAPS-PSGD (adaptive peer selection):")
	report(adaptive)

	// Same sparsified gossip, but peers chosen uniformly at random — the
	// paper's RandomChoose comparison.
	random := run(saps.NewRandomChoose(fc, bw, cfg))
	fmt.Println("RandomChoose (uniform random matching):")
	report(random)

	fa, fr := adaptive.Records.Final(), random.Records.Final()
	fmt.Printf("speedup from adaptive selection: %.1f×  (%.3f s vs %.3f s of simulated comm time)\n",
		fr.TimeSec/fa.TimeSec, fa.TimeSec, fr.TimeSec)
}

func report(r saps.Result) {
	f := r.Records.Final()
	fmt.Printf("  final accuracy %.2f%%, %.3f MB/worker, %.3f s communication\n\n",
		100*f.ValAcc, f.TrafficMB, f.TimeSec)
}
