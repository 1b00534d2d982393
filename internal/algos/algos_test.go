package algos

import (
	"math"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// testSetup builds a small shared task: n workers, tiny synthetic task, MLP.
func testSetup(t *testing.T, n int) (FleetConfig, *netsim.Bandwidth, *dataset.Dataset) {
	t.Helper()
	tr, va := dataset.TinyTask(400, 4, 31)
	shards := dataset.PartitionIID(tr, n, 1)
	fc := FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{16}, 4, 5) },
		Shards:  shards,
		LR:      0.1,
		Batch:   16,
		Seed:    3,
	}
	bw := netsim.RandomUniform(n, 1, 5, rng.New(7))
	return fc, bw, va
}

func sapsConfig(n int) core.Config {
	return core.Config{
		Workers:     n,
		Compression: 4,
		LR:          0.1,
		Batch:       16,
		LocalSteps:  1,
		Gossip:      gossip.Config{BThres: 2, TThres: 5},
		Seed:        3,
	}
}

// newSAPSFamily builds the pairwise recipe algo (saps or randomchoose) with
// cfg's ratio, local steps and thresholds over the membership m. It panics
// on an invalid membership.
func newSAPSFamily(algo string, fc FleetConfig, bw *netsim.Bandwidth, cfg core.Config, m Membership) *InProc {
	return newOver(fc, Recipe{Algo: algo, Compression: cfg.Compression, LocalSteps: cfg.LocalSteps}, bw, cfg.Gossip, m)
}

func meanAcc(t *testing.T, alg Algorithm, va *dataset.Dataset) float64 {
	t.Helper()
	models := alg.Models()
	host := models[0]
	dim := host.ParamCount()
	mean := make([]float64, dim)
	for _, m := range models {
		tensor.Axpy(1/float64(len(models)), m.FlatParams(nil), mean)
	}
	saved := host.FlatParams(nil)
	host.SetFlatParams(mean)
	_, acc := nn.EvaluateDataset(host, va, 128)
	host.SetFlatParams(saved)
	return acc
}

// runRounds drives an algorithm and returns final mean-model accuracy plus
// the ledger.
func runRounds(t *testing.T, alg Algorithm, bw *netsim.Bandwidth, va *dataset.Dataset, rounds int) (float64, *netsim.Ledger) {
	t.Helper()
	led := netsim.NewLedger(bw)
	for r := 0; r < rounds; r++ {
		loss := alg.Step(r, led)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%s: loss diverged to %v at round %d", t.Name(), loss, r)
		}
	}
	if !led.ConservationOK() {
		t.Fatalf("%s: ledger conservation violated", t.Name())
	}
	return meanAcc(t, alg, va), led
}

func TestAllAlgorithmsLearn(t *testing.T) {
	const n, rounds = 8, 250
	builders := []struct {
		name  string
		build func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm
		min   float64
	}{
		{"PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewPSGD(fc) }, 0.8},
		{"TopK-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewTopKPSGD(fc, 20) }, 0.75},
		{"FedAvg", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewFedAvg(fc, bw, 0.5, 3) }, 0.75},
		{"S-FedAvg", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewSFedAvg(fc, bw, 0.5, 3, 10) }, 0.7},
		{"D-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewDPSGD(fc) }, 0.75},
		{"DCD-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewDCDPSGD(fc, 4) }, 0.7},
		{"SAPS-PSGD", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewSAPS(fc, bw, sapsConfig(n)) }, 0.7},
		{"RandomChoose", func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm {
			return newSAPSFamily("randomchoose", fc, bw, sapsConfig(n), Membership{})
		}, 0.7},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			fc, bw, va := testSetup(t, n)
			alg := b.build(fc, bw)
			acc, _ := runRounds(t, alg, bw, va, rounds)
			if acc < b.min {
				t.Fatalf("%s accuracy %v, want >= %v", b.name, acc, b.min)
			}
		})
	}
}

func TestTrafficOrdering(t *testing.T) {
	// The paper's headline claim (Table I / Fig. 4): per-worker traffic of
	// SAPS-PSGD is far below PSGD, D-PSGD and TopK-PSGD for the same number
	// of rounds.
	const n, rounds = 8, 30
	traffic := map[string]float64{}
	for name, build := range map[string]func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm{
		"PSGD":      func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewPSGD(fc) },
		"TopK-PSGD": func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewTopKPSGD(fc, 100) },
		"D-PSGD":    func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewDPSGD(fc) },
		"DCD-PSGD":  func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm { return NewDCDPSGD(fc, 4) },
		"SAPS-PSGD": func(fc FleetConfig, bw *netsim.Bandwidth) Algorithm {
			c := sapsConfig(n)
			c.Compression = 100
			return NewSAPS(fc, bw, c)
		},
	} {
		fc, bw, _ := testSetup(t, n)
		alg := build(fc, bw)
		led := netsim.NewLedger(bw)
		for r := 0; r < rounds; r++ {
			alg.Step(r, led)
		}
		traffic[name] = led.MeanWorkerTrafficMB()
	}
	saps := traffic["SAPS-PSGD"]
	for name, v := range traffic {
		if name == "SAPS-PSGD" {
			continue
		}
		if saps >= v {
			t.Fatalf("SAPS traffic %v MB not below %s traffic %v MB", saps, name, v)
		}
	}
	// D-PSGD must be the most expensive decentralized scheme (dense, two
	// neighbors).
	if traffic["D-PSGD"] <= traffic["DCD-PSGD"] {
		t.Fatalf("D-PSGD %v should exceed DCD-PSGD %v", traffic["D-PSGD"], traffic["DCD-PSGD"])
	}
}

func TestSAPSTrafficMatchesCostModel(t *testing.T) {
	// Per round a SAPS worker sends and receives ~N/c values at 4 bytes.
	const n, rounds = 8, 50
	fc, bw, _ := testSetup(t, n)
	cfg := sapsConfig(n)
	cfg.Compression = 10
	alg := NewSAPS(fc, bw, cfg)
	led := netsim.NewLedger(bw)
	for r := 0; r < rounds; r++ {
		alg.Step(r, led)
	}
	dim := alg.Models()[0].ParamCount()
	wantPerRound := 2 * float64(dim) / cfg.Compression * 4 // bytes
	got := led.MeanWorkerTrafficMB() * 1e6 / rounds
	if math.Abs(got-wantPerRound)/wantPerRound > 0.15 {
		t.Fatalf("per-round traffic %v bytes, cost model says %v", got, wantPerRound)
	}
}

func TestPSGDKeepsModelsIdentical(t *testing.T) {
	const n = 4
	fc, bw, _ := testSetup(t, n)
	alg := NewPSGD(fc)
	led := netsim.NewLedger(bw)
	for r := 0; r < 10; r++ {
		alg.Step(r, led)
	}
	ref := alg.Models()[0].FlatParams(nil)
	for i, m := range alg.Models()[1:] {
		p := m.FlatParams(nil)
		for j := range p {
			if p[j] != ref[j] {
				t.Fatalf("worker %d diverged from worker 0 at coord %d", i+1, j)
			}
		}
	}
}

func TestSAPSReducesConsensusError(t *testing.T) {
	const n = 8
	fc, bw, va := testSetup(t, n)
	_ = va
	alg := NewSAPS(fc, bw, sapsConfig(n))
	led := netsim.NewLedger(bw)
	// Run a while; workers drift due to local SGD but gossip keeps the
	// disagreement bounded. Compare against a no-communication fleet.
	iso := NewFleet(fc)
	loaders := make([]*dataset.Loader, n)
	for i := range loaders {
		loaders[i] = dataset.NewLoader(fc.Shards[i], fc.Batch, fc.Seed+uint64(i)*104729)
	}
	opt := &nn.SGD{LR: fc.LR}
	for r := 0; r < 120; r++ {
		alg.Step(r, led)
		for i, m := range iso.Models {
			xs, ys := loaders[i].Next()
			nn.TrainBatch(m, opt, xs, ys)
		}
	}
	consensus := func(models []*nn.Model) float64 {
		dim := models[0].ParamCount()
		mean := make([]float64, dim)
		flats := make([][]float64, len(models))
		for i, m := range models {
			flats[i] = m.FlatParams(nil)
			tensor.Axpy(1/float64(len(models)), flats[i], mean)
		}
		tot := 0.0
		for _, f := range flats {
			for j := range f {
				d := f[j] - mean[j]
				tot += d * d
			}
		}
		return tot
	}
	gossiped := consensus(alg.Models())
	isolated := consensus(iso.Models)
	if gossiped >= isolated/2 {
		t.Fatalf("gossip consensus %v not well below isolated drift %v", gossiped, isolated)
	}
}

func TestSAPSPrefersBandwidthOverRandom(t *testing.T) {
	const n = 14
	tr, _ := dataset.TinyTask(280, 4, 31)
	shards := dataset.PartitionIID(tr, n, 1)
	fc := FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{8}, 4, 5) },
		Shards:  shards,
		LR:      0.1,
		Batch:   8,
		Seed:    3,
	}
	bw := netsim.FourteenCities()
	cfg := sapsConfig(n)
	cfg.Gossip.BThres = 2
	saps := NewSAPS(fc, bw, cfg)
	random := newSAPSFamily("randomchoose", fc, bw, cfg, Membership{})
	ledA := netsim.NewLedger(bw)
	ledB := netsim.NewLedger(bw)
	var s, r float64 // sums of the per-round mean matched bandwidth
	for round := 0; round < 60; round++ {
		s += gossip.MeanMatchedBandwidth(saps.Round(round, ledA).Plan.Matching(), bw)
		r += gossip.MeanMatchedBandwidth(random.Round(round, ledB).Plan.Matching(), bw)
	}
	if s <= r {
		t.Fatalf("SAPS matched bandwidth %v not above random %v (summed over 60 rounds)", s, r)
	}
}

func TestFedAvgSelectsFraction(t *testing.T) {
	const n = 8
	chosen := func(fraction float64) int {
		r := Recipe{Algo: "fedavg", Workers: n, LR: 0.1, Batch: 8, Seed: 3, Fraction: fraction, LocalSteps: 1}
		plan := r.Planner(nil, gossip.Config{}).Plan(0)
		k := 0
		for i := 0; i < n; i++ { // exclude the always-active server rank
			if plan.Active[i] {
				k++
			}
		}
		return k
	}
	if got := chosen(0.5); got != 4 {
		t.Fatalf("selected %d, want 4", got)
	}
	if got := chosen(0.01); got != 1 {
		t.Fatalf("selected %d, want floor of 1", got)
	}
}

func TestFleetValidation(t *testing.T) {
	fc, _, _ := testSetup(t, 4)
	bads := []func() FleetConfig{
		func() FleetConfig { c := fc; c.N = 1; return c },
		func() FleetConfig { c := fc; c.Shards = c.Shards[:2]; return c },
		func() FleetConfig { c := fc; c.Factory = nil; return c },
		func() FleetConfig { c := fc; c.LR = 0; return c },
	}
	for i, mk := range bads {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad fleet config %d accepted", i)
				}
			}()
			NewFleet(mk())
		}()
	}
}

func TestDCDHighCompressionDegrades(t *testing.T) {
	// The paper notes DCD-PSGD cannot tolerate aggressive compression
	// (c = 100 "would not converge at all"): the replicas lag far behind the
	// true models, so worker disagreement blows up relative to c = 4. Use a
	// non-IID partition so local models actively drift apart.
	const n, rounds = 8, 120
	consensusAfter := func(c float64) float64 {
		tr, _ := dataset.TinyTask(400, 4, 31)
		shards := dataset.PartitionByLabel(tr, n, 1, 3)
		fc := FleetConfig{
			N:       n,
			Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{16}, 4, 5) },
			Shards:  shards,
			LR:      0.1,
			Batch:   16,
			Seed:    3,
		}
		bw := netsim.RandomUniform(n, 1, 5, rng.New(7))
		alg := NewDCDPSGD(fc, c)
		led := netsim.NewLedger(bw)
		for r := 0; r < rounds; r++ {
			if loss := alg.Step(r, led); math.IsNaN(loss) || loss > 1e6 {
				return math.Inf(1) // diverged — maximal degradation
			}
		}
		models := alg.Models()
		dim := models[0].ParamCount()
		mean := make([]float64, dim)
		flats := make([][]float64, len(models))
		for i, m := range models {
			flats[i] = m.FlatParams(nil)
			tensor.Axpy(1/float64(len(models)), flats[i], mean)
		}
		tot := 0.0
		for _, f := range flats {
			for j := range f {
				d := f[j] - mean[j]
				tot += d * d
			}
		}
		return tot
	}
	good := consensusAfter(4)
	bad := consensusAfter(100)
	if bad < 3*good {
		t.Fatalf("DCD c=100 consensus error %v not well above c=4 error %v", bad, good)
	}
}
