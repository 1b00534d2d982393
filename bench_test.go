// Micro- and smoke benchmarks of the library. The paper's tables and
// figures are not benchmarks: they are the committed campaigns under
// campaigns/paper/ (EXPERIMENTS.md has the map). What stays here is what a
// campaign cannot express — planner-level sweeps of Algorithm 3's two
// thresholds, raw round and forward/backward throughput — and the
// BENCH.json traffic summary CI gates on.
package sapspsgd_test

import (
	"runtime"
	"testing"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/spectral"
	"sapspsgd/internal/tensor"
)

// BenchmarkAblationTThres sweeps Algorithm 3's recency window: smaller
// TThres forces reconnection more often (better mixing, lower matched
// bandwidth).
func BenchmarkAblationTThres(b *testing.B) {
	bw := netsim.FourteenCities()
	for _, tt := range []int{2, 5, 10, 20} {
		b.Run(map[int]string{2: "T2", 5: "T5", 10: "T10", 20: "T20"}[tt], func(b *testing.B) {
			var mean float64
			var rho float64
			for i := 0; i < b.N; i++ {
				gen := gossip.NewGenerator(bw, gossip.Config{BThres: 2, TThres: tt}, uint64(11+i))
				var ws []*tensor.Matrix
				total := 0.0
				const iters = 200
				for t := 0; t < iters; t++ {
					r := gen.Next(t)
					total += gossip.MeanMatchedBandwidth(r.Match, bw)
					if t < 100 {
						ws = append(ws, r.W())
					}
				}
				mean = total / iters
				rho = spectral.RhoOfExpectedWtW(ws, 200)
			}
			b.ReportMetric(mean, "matched-MBps")
			b.ReportMetric(rho, "rho")
		})
	}
}

// BenchmarkAblationBThres sweeps the bandwidth threshold of Algorithm 1:
// higher thresholds concentrate traffic on fast links until B* fragments and
// the recency fallback dominates.
func BenchmarkAblationBThres(b *testing.B) {
	bw := netsim.FourteenCities()
	for _, bt := range []float64{0, 2, 5, 10} {
		name := map[float64]string{0: "B0", 2: "B2", 5: "B5", 10: "B10"}[bt]
		b.Run(name, func(b *testing.B) {
			var mean float64
			forced := 0
			for i := 0; i < b.N; i++ {
				gen := gossip.NewGenerator(bw, gossip.Config{BThres: bt, TThres: 8}, uint64(13+i))
				total := 0.0
				forced = 0
				const iters = 200
				for t := 0; t < iters; t++ {
					r := gen.Next(t)
					total += gossip.MeanMatchedBandwidth(r.Match, bw)
					if r.Forced {
						forced++
					}
				}
				mean = total / iters
			}
			b.ReportMetric(mean, "matched-MBps")
			b.ReportMetric(float64(forced), "forced-rounds")
		})
	}
}

// --- End-to-end training throughput -----------------------------------------

func BenchmarkSAPSRoundThroughput32Workers(b *testing.B) {
	if testing.Short() {
		b.Skip("training benchmark skipped in -short mode")
	}
	// The paper's MNIST base scenario widened to 32 workers.
	spec, err := scenario.Load("campaigns/paper/base-mnist.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.Nodes, spec.Compression = 32, 50
	spec.Data.Samples, spec.Data.Valid = 1024, 0
	alg, bw, err := spec.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	led := netsim.NewLedger(bw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Step(i, led)
	}
	b.ReportMetric(float64(alg.Models()[0].ParamCount()), "params")
}

// BenchmarkResNet20ForwardBackward exercises the paper-scale ResNet-20 on a
// CIFAR-sized input — the full model, not the bench-scaled one.
func BenchmarkResNet20ForwardBackward(b *testing.B) {
	if testing.Short() {
		b.Skip("training benchmark skipped in -short mode")
	}
	m := nn.NewResNet20(1)
	r := rng.New(1)
	x := tensor.NewMatrix(4, 3*32*32)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	ys := []int{0, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, dl := nn.SoftmaxCrossEntropy(logits, ys)
		m.Backward(dl)
	}
	b.ReportMetric(float64(m.ParamCount()), "params")
}

// --- BENCH.json: traffic smoke + fleet shard sweep ---------------------------

// BenchmarkTrafficSmoke runs every baseline for a handful of rounds at tiny
// scale on the engine's Pattern/Codec compositions, then sweeps the 512-node
// SAPS fleet scenario across engine shard counts (1 vs 8 — the serial
// reference against the parallel sharded runtime). It stays enabled under
// -short so CI's bench step (`go test -bench . -benchtime 1x -short`) always
// produces the schema-versioned BENCH.json summary that the bench-regression
// job diffs against the committed bench_baseline.json (byte counts are
// deterministic and must match exactly; wall time may regress at most 25%).
func BenchmarkTrafficSmoke(b *testing.B) {
	const n, rounds = 8, 3
	tr, _ := dataset.TinyTask(240, 4, 31)
	shards := dataset.PartitionIID(tr, n, 1)
	bw := netsim.RandomUniform(n, 1, 5, rng.New(7))
	var rows []scenario.AlgoRow
	var sweep scenario.ScenarioSweep
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range []string{"PSGD", "TopK-PSGD", "FedAvg", "S-FedAvg", "D-PSGD", "DCD-PSGD", "SAPS-PSGD", "QSGD-PSGD", "PS-PSGD"} {
			fc := algos.FleetConfig{
				N:       n,
				Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{12}, 4, 5) },
				Shards:  shards,
				LR:      0.1,
				Batch:   8,
				Seed:    3,
			}
			var alg algos.Algorithm
			switch name {
			case "PSGD":
				alg = algos.NewPSGD(fc)
			case "TopK-PSGD":
				alg = algos.NewTopKPSGD(fc, 20)
			case "FedAvg":
				alg = algos.NewFedAvg(fc, bw, 0.5, 2)
			case "S-FedAvg":
				alg = algos.NewSFedAvg(fc, bw, 0.5, 2, 10)
			case "D-PSGD":
				alg = algos.NewDPSGD(fc)
			case "DCD-PSGD":
				alg = algos.NewDCDPSGD(fc, 4)
			case "QSGD-PSGD":
				alg = algos.NewQSGDPSGD(fc, 4)
			case "PS-PSGD":
				alg = algos.NewPSPSGD(fc, bw)
			case "SAPS-PSGD":
				cfg := core.Config{
					Workers: n, Compression: 10, LR: 0.1, Batch: 8, LocalSteps: 1,
					Gossip: gossip.Config{BThres: 2, TThres: 5}, Seed: 3,
				}
				alg = algos.NewSAPS(fc, bw, cfg)
			}
			sim := netsim.NewLedger(bw)
			start := time.Now()
			for r := 0; r < rounds; r++ {
				alg.Step(r, sim)
			}
			wall := time.Since(start)
			var volume int64
			for w := 0; w < n; w++ {
				s, rcv := sim.WorkerBytes(w)
				volume += s + rcv
			}
			rows = append(rows, scenario.AlgoRow{
				Algorithm:      name,
				BytesPerRound:  volume / int64(n) / int64(rounds),
				SimSeconds:     sim.TotalTime(),
				WallMsPerRound: float64(wall.Microseconds()) / 1000 / rounds,
			})
			if c, ok := alg.(interface{ Close() }); ok {
				c.Close()
			}
		}
		sweep = fleetShardSweep(b)
	}
	// The declarative fault scenario (scheduled crash/rejoin + seeded
	// mortality) rides in the summary too, so fault-injection traffic is
	// regression-gated like every other row.
	faults := scenarioSweep(b, "internal/scenario/testdata/saps-crash-rejoin.json", 1, 4)
	out := &scenario.BenchFile{
		SchemaVersion: scenario.BenchSchemaVersion,
		Source:        "go-test-bench",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Algorithms:    rows,
		Scenarios:     []scenario.ScenarioSweep{sweep, faults},
	}
	if err := scenario.WriteBench("BENCH.json", out); err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Algorithm == "SAPS-PSGD" {
			b.ReportMetric(float64(r.BytesPerRound), "saps-B/round")
		}
		if r.Algorithm == "D-PSGD" {
			b.ReportMetric(float64(r.BytesPerRound), "dpsgd-B/round")
		}
	}
	b.ReportMetric(sweep.Speedup, "saps512-speedup-8shards")
}

// fleetShardSweep executes the 512-node SAPS scenario serially (1 shard) and
// across the 8-shard parallel runtime, verifying byte determinism on the
// spot. Wall-clock speedup depends on the machine's core count.
func fleetShardSweep(b *testing.B) scenario.ScenarioSweep {
	b.Helper()
	return scenarioSweep(b, "internal/scenario/testdata/saps-512.json", 1, 8)
}

// scenarioSweep runs one scenario spec across the given shard counts,
// asserting byte determinism on the spot.
func scenarioSweep(b *testing.B, path string, shardCounts ...int) scenario.ScenarioSweep {
	b.Helper()
	spec, err := scenario.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	sweep := scenario.ScenarioSweep{Name: spec.Name, Algo: spec.Algo, Nodes: spec.Nodes, Rounds: spec.Rounds}
	for _, shards := range shardCounts {
		res, err := spec.Run(shards)
		if err != nil {
			b.Fatal(err)
		}
		sweep.Runs = append(sweep.Runs, res)
	}
	for _, run := range sweep.Runs[1:] {
		if run.TotalBytes != sweep.Runs[0].TotalBytes {
			b.Fatalf("shard sweep traffic diverged: %d vs %d bytes", run.TotalBytes, sweep.Runs[0].TotalBytes)
		}
	}
	sweep.ComputeSpeedup()
	return sweep
}
