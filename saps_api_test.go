package sapspsgd_test

import (
	"testing"

	saps "sapspsgd"
)

// TestPublicAPIQuickstart exercises the documented façade end to end: the
// same flow as examples/quickstart, at unit-test scale.
func TestPublicAPIQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run skipped in -short mode")
	}
	const workers = 4
	train, valid := saps.MNISTLike(256, 64, 42)
	shards := saps.PartitionIID(train, workers, 1)
	in := saps.Shape{C: 1, H: 28, W: 28}
	factory := func() *saps.Model { return saps.NewMNISTCNN(in, 10, 0.1, 7) }

	cfg := saps.DefaultConfig(workers)
	cfg.Compression = 10
	cfg.Batch = 16
	bw := saps.RandomUniform(workers, 0, 5, 3)

	alg := saps.NewSAPS(saps.FleetConfig{
		N: workers, Factory: factory, Shards: shards,
		LR: cfg.LR, Batch: cfg.Batch, Seed: 1,
	}, bw, cfg)

	res := saps.Run(alg, bw, saps.TrainConfig{Rounds: 30, Valid: valid})
	if res.Algorithm != "SAPS-PSGD" {
		t.Fatalf("Algorithm = %q", res.Algorithm)
	}
	f := res.Records.Final()
	if f.ValAcc < 0.3 { // 10 classes, chance = 0.1
		t.Fatalf("accuracy %v after 30 rounds", f.ValAcc)
	}
	if f.TrafficMB <= 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	const workers = 4
	train, valid := saps.MNISTLike(200, 50, 5)
	shards := saps.PartitionByLabel(train, workers, 2, 1)
	fc := saps.FleetConfig{
		N:       workers,
		Factory: func() *saps.Model { return saps.NewMLP(28*28, []int{16}, 10, 7) },
		Shards:  shards,
		LR:      0.05,
		Batch:   16,
		Seed:    1,
	}
	bw := saps.FourteenCities()
	// 14-city environment has 14 workers; use a random one matching n.
	bw = saps.RandomUniform(workers, 1, 5, 2)

	cfg := saps.DefaultConfig(workers)
	cfg.Compression = 4
	cfg.Batch = 16

	algs := []saps.Algorithm{
		saps.NewPSGD(fc),
		saps.NewTopKPSGD(fc, 10),
		saps.NewFedAvg(fc, bw, 0.5, 2),
		saps.NewSFedAvg(fc, bw, 0.5, 2, 10),
		saps.NewDPSGD(fc),
		saps.NewDCDPSGD(fc, 4),
		saps.NewRandomChoose(fc, bw, cfg),
	}
	for _, alg := range algs {
		res := saps.Run(alg, bw, saps.TrainConfig{Rounds: 10, Valid: valid})
		if len(res.Records) == 0 {
			t.Fatalf("%s: no records", alg.Name())
		}
	}
}

func TestPublicAPIModels(t *testing.T) {
	// The paper-scale constructors exist and produce the documented sizes.
	mnist := saps.NewMNISTCNN(saps.Shape{C: 1, H: 28, W: 28}, 10, 1, 1)
	if mnist.ParamCount() != 1663370 {
		t.Fatalf("MNIST-CNN params = %d", mnist.ParamCount())
	}
	resnet := saps.NewResNet(saps.Shape{C: 3, H: 32, W: 32}, 10, 3, 1, 1)
	if resnet.ParamCount() < 250000 || resnet.ParamCount() > 300000 {
		t.Fatalf("ResNet-20 params = %d", resnet.ParamCount())
	}
	cifar := saps.NewCIFARCNN(saps.Shape{C: 3, H: 32, W: 32}, 10, 1, 1)
	if cifar.ParamCount() < 1e6 {
		t.Fatalf("CIFAR-CNN params = %d", cifar.ParamCount())
	}
}

func TestPublicAPIEnvironments(t *testing.T) {
	cities := saps.FourteenCities()
	if cities.N != 14 {
		t.Fatal("FourteenCities N")
	}
	r := saps.RandomUniform(8, 1, 3, 9)
	if r.N != 8 || r.MBps(0, 1) <= 0 {
		t.Fatal("RandomUniform")
	}
	tr, va := saps.CIFARLike(100, 20, 3)
	if tr.Len() != 100 || va.Len() != 20 {
		t.Fatal("CIFARLike sizes")
	}
}
