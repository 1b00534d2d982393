// Micro-benchmarks of the library: raw round and forward/backward
// throughput, for measuring while you work. The paper's tables and figures
// are not benchmarks: they are the committed campaigns under campaigns/paper/
// (EXPERIMENTS.md has the map). Comparing a change against its parent is
// benchmark/'s job (benchmark/README.md).
package sapspsgd_test

import (
	"testing"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

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
	alg, env, err := spec.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	led := netsim.NewLedger(env.Current())
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
