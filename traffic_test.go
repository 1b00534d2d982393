// The byte gate. Traffic is deterministic, so a byte change is a behaviour
// change, not noise: every exchange pattern × codec composition the paper
// compares (Table I) at tiny scale, and two fleet scenarios across engine
// shard counts, against the values they have moved since they were first
// recorded. A deliberate traffic change edits the numbers here, in the same
// commit, where review sees them.
package sapspsgd_test

import (
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
)

func TestTrafficGolden(t *testing.T) {
	const n, rounds = 8, 3
	tr, _ := dataset.TinyTask(240, 4, 31)
	bw := netsim.RandomUniform(n, 1, 5, rng.New(7))
	fc := algos.FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{12}, 4, 5) },
		Shards:  dataset.PartitionIID(tr, n, 1),
		LR:      0.1,
		Batch:   8,
		Seed:    3,
	}
	sapsCfg := core.Config{
		Workers: n, Compression: 10, LR: 0.1, Batch: 8, LocalSteps: 1,
		Gossip: gossip.Config{BThres: 2, TThres: 5}, Seed: 3,
	}
	for _, tc := range []struct {
		name  string
		build func() algos.Algorithm
		want  int64 // bytes per round per worker, sent + received
	}{
		{"PSGD", func() algos.Algorithm { return algos.NewPSGD(fc) }, 11648},
		{"TopK-PSGD", func() algos.Algorithm { return algos.NewTopKPSGD(fc, 20) }, 4592},
		{"FedAvg", func() algos.Algorithm { return algos.NewFedAvg(fc, bw, 0.5, 2) }, 3328},
		{"S-FedAvg", func() algos.Algorithm { return algos.NewSFedAvg(fc, bw, 0.5, 2, 10) }, 1996},
		{"D-PSGD", func() algos.Algorithm { return algos.NewDPSGD(fc) }, 13312},
		{"DCD-PSGD", func() algos.Algorithm { return algos.NewDCDPSGD(fc, 4) }, 6656},
		{"SAPS-PSGD", func() algos.Algorithm { return algos.NewSAPS(fc, bw, sapsCfg) }, 672},
		{"QSGD-PSGD", func() algos.Algorithm { return algos.NewQSGDPSGD(fc, 4) }, 5880},
		{"PS-PSGD", func() algos.Algorithm { return algos.NewPSPSGD(fc, bw) }, 6656},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alg := tc.build()
			if c, ok := alg.(interface{ Close() }); ok {
				defer c.Close()
			}
			led := netsim.NewLedger(bw)
			for r := 0; r < rounds; r++ {
				alg.Step(r, led)
			}
			var volume int64
			for w := 0; w < n; w++ {
				sent, rcvd := led.WorkerBytes(w)
				volume += sent + rcvd
			}
			if got := volume / n / rounds; got != tc.want {
				t.Errorf("%d bytes per round per worker, want %d", got, tc.want)
			}
		})
	}

	// The 512-node SAPS fleet, serial against the 8-shard runtime, and the
	// declarative fault scenario (scheduled crash/rejoin + seeded mortality).
	for _, tc := range []struct {
		spec   string
		shards []int
		want   int64 // total bytes, every endpoint's sent + received
	}{
		{"internal/scenario/testdata/saps-512.json", []int{1, 8}, 1105920},
		{"internal/scenario/testdata/saps-crash-rejoin.json", []int{1, 4}, 53616},
	} {
		spec, err := scenario.Load(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range tc.shards {
			out, err := spec.RunFull(scenario.RunOptions{Shards: shards})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", spec.Name, shards, err)
			}
			if res := out.Result; res.TotalBytes != tc.want {
				t.Errorf("%s shards=%d: %d total bytes, want %d", spec.Name, shards, res.TotalBytes, tc.want)
			}
		}
	}
}
