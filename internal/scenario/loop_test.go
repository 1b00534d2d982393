package scenario

import (
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

func loopSetup(n int) (algos.FleetConfig, *netsim.Bandwidth, *dataset.Dataset) {
	tr, va := dataset.TinyTask(400, 4, 31)
	fc := algos.FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{16}, 4, 5) },
		Shards:  dataset.PartitionIID(tr, n, 1),
		LR:      0.1,
		Batch:   16,
		Seed:    3,
	}
	return fc, netsim.RandomUniform(n, 1, 5, rng.New(7)), va
}

func TestRunLoopProducesMonotoneSeries(t *testing.T) {
	const n = 6
	fc, bw, va := loopSetup(n)
	cfg := core.Config{
		Workers: n, Compression: 4, LR: 0.1, Batch: 16, LocalSteps: 1,
		Gossip: gossip.Config{BThres: 2, TThres: 5}, Seed: 3,
	}
	res := RunLoop(algos.NewSAPS(fc, bw, cfg), netsim.NewLedger(bw), Loop{Rounds: 130, Valid: va})
	// Every max(1, 130/20) = 6 rounds, plus the final round 130.
	if len(res.Records) != 22 || res.Records[0].Round != 6 || res.Records[20].Round != 126 {
		t.Fatalf("got %d records: %+v", len(res.Records), res.Records)
	}
	prevTraffic, prevTime := -1.0, -1.0
	for _, r := range res.Records {
		if r.TrafficMB < prevTraffic || r.TimeSec < prevTime {
			t.Fatalf("traffic/time not monotone: %+v", r)
		}
		prevTraffic, prevTime = r.TrafficMB, r.TimeSec
	}
	final := res.Records.Final()
	if final.Round != 130 {
		t.Fatalf("final round %d", final.Round)
	}
	if final.ValAcc < 0.6 {
		t.Fatalf("final accuracy %v too low", final.ValAcc)
	}
	if final.TrainLoss != res.FinalLoss {
		t.Fatalf("final record loss %v, run loss %v", final.TrainLoss, res.FinalLoss)
	}
	if !res.Ledger.ConservationOK() {
		t.Fatal("ledger conservation")
	}
}

func TestRunLoopWithoutValidationNeverEvaluates(t *testing.T) {
	fc, bw, _ := loopSetup(4)
	res := RunLoop(algos.NewPSGD(fc).(*algos.InProc), netsim.NewLedger(bw), Loop{Rounds: 5})
	if len(res.Records) != 0 || res.FinalLoss <= 0 || res.Ledger.TotalTime() <= 0 {
		t.Fatalf("records %d, loss %v, sim %v", len(res.Records), res.FinalLoss, res.Ledger.TotalTime())
	}
}

func TestFirstReaching(t *testing.T) {
	evals := Evals{
		{Round: 10, ValAcc: 0.3, TrafficMB: 1},
		{Round: 20, ValAcc: 0.7, TrafficMB: 2},
		{Round: 30, ValAcc: 0.9, TrafficMB: 3},
	}
	rec, ok := evals.FirstReaching(0.65)
	if !ok || rec.Round != 20 {
		t.Fatalf("FirstReaching = %+v, %v", rec, ok)
	}
	if _, ok := evals.FirstReaching(0.99); ok {
		t.Fatal("should not reach 0.99")
	}
	if (Evals{}).Final() != (EvalPoint{}) {
		t.Fatal("empty series has a final point")
	}
}

func TestEvalMeanRestoresHostParams(t *testing.T) {
	fc, _, va := loopSetup(3)
	f := algos.NewFleet(fc)
	before := f.Models[0].FlatParams(nil)
	// Make models differ so the mean is distinct from model 0.
	p1 := f.Models[1].FlatParams(nil)
	for i := range p1 {
		p1[i]++
	}
	f.Models[1].SetFlatParams(p1)
	evalMean(f.Models, va)
	after := f.Models[0].FlatParams(nil)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("evalMean did not restore host parameters")
		}
	}
}

// TestImageTaskSpecEvaluates runs a spec in the image vocabulary end to end:
// the split has the stated sizes and the run carries the evaluation series.
func TestImageTaskSpecEvaluates(t *testing.T) {
	s := minimal()
	s.Rounds = 6
	s.Model = ModelSpec{Arch: "mnist-cnn", Width: 0.125}
	s.Data = DataSpec{Samples: 96, Classes: 4, C: 1, H: 8, W: 8, Valid: 32, Seed: 9}
	train, valid := s.task()
	if train.Len() != 96 || valid.Len() != 32 || train.Dim() != 64 {
		t.Fatalf("split %d/%d, dim %d", train.Len(), valid.Len(), train.Dim())
	}
	out, err := s.RunFull(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// max(1, 6/20) = 1: every round is evaluated.
	if len(out.Evals) != 6 || out.Evals.Final().Round != 6 || out.Evals.Final().TimeSec != out.Result.SimSeconds {
		t.Fatalf("evals %+v, result %+v", out.Evals, out.Result)
	}
	s.Data.Valid = 0
	if out, err = s.RunFull(RunOptions{}); err != nil || out.Evals != nil {
		t.Fatalf("spec without a validation split evaluated: %+v, %v", out, err)
	}
}

// TestLocalStepsTradeRoundsForTraffic is the local-steps ablation's claim
// (campaigns/paper/ablations/local-steps-*.json): the same gradient work in
// a quarter of the rounds moves about a quarter of the bytes.
func TestLocalStepsTradeRoundsForTraffic(t *testing.T) {
	s := minimal()
	s.Algo, s.Compression, s.Rounds = "saps", 4, 40
	one, err := runResult(&s, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.LocalSteps, s.Rounds = 4, 10
	four, err := runResult(&s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(one.TotalBytes) / float64(four.TotalBytes); ratio < 3 || ratio > 5 {
		t.Fatalf("1 local step moved %d bytes, 4 local steps %d (ratio %.2f, want ~4)", one.TotalBytes, four.TotalBytes, ratio)
	}
}
