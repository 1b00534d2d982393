package algos

import (
	"math"
	"testing"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

// costParams instantiates Table I's symbols.
type costParams struct {
	N  int     // model size (parameters)
	n  int     // workers
	C  float64 // compression ratio
	T  int     // rounds
	Np int     // max neighbors (decentralized)
}

// tableIWorkerCost is the paper's Table I, worker column: the per-algorithm
// communication cost in transmitted values, exactly as the paper states it
// (EXPERIMENTS.md reprints the table with the server column and the
// feature flags).
var tableIWorkerCost = map[string]func(p costParams) float64{
	"PS-PSGD":   func(p costParams) float64 { return 2 * float64(p.N) * float64(p.T) },
	"PSGD":      func(p costParams) float64 { return 2 * float64(p.N) * float64(p.T) },
	"TopK-PSGD": func(p costParams) float64 { return 2 * float64(p.n) * float64(p.N) / p.C * float64(p.T) },
	"FedAvg":    func(p costParams) float64 { return 2 * float64(p.N) * float64(p.T) },
	"S-FedAvg":  func(p costParams) float64 { return (float64(p.N) + 2*float64(p.N)/p.C) * float64(p.T) },
	"D-PSGD":    func(p costParams) float64 { return 4 * float64(p.Np) * float64(p.N) * float64(p.T) },
	"DCD-PSGD":  func(p costParams) float64 { return 4 * float64(p.Np) * float64(p.N) / p.C * float64(p.T) },
	"SAPS-PSGD": func(p costParams) float64 { return 2 * float64(p.N) / p.C * float64(p.T) },
}

func TestCostModelMatchesPaperOrdering(t *testing.T) {
	// The paper's own instantiation: 32 workers, the 6.65M-parameter
	// MNIST-CNN, c = 100, 1000 rounds, ring neighborhoods.
	p := costParams{N: 6653628, n: 32, C: 100, T: 1000, Np: 2}
	saps := tableIWorkerCost["SAPS-PSGD"](p)
	for name, cost := range tableIWorkerCost {
		if name != "SAPS-PSGD" && saps >= cost(p) {
			t.Fatalf("Table I: SAPS cost %v not below %s cost %v", saps, name, cost(p))
		}
	}
	// Spot-check two symbolic evaluations.
	if got, want := tableIWorkerCost["PSGD"](p), 2.0*6653628*1000; got != want {
		t.Fatalf("PSGD cost %v, want %v", got, want)
	}
	if got, want := saps, 2.0*6653628/100*1000; got != want {
		t.Fatalf("SAPS cost %v, want %v", got, want)
	}
}

// TestMeasuredTrafficMatchesTableI cross-checks the engine's *measured*
// per-round wire bytes (what the codecs actually encoded) against the
// paper's analytic Table I cost model for every compared algorithm.
//
// The measured quantity is a worker's mean per-round volume: sent + received
// bytes at the worker's endpoints (the convention of Fig. 4's per-worker
// communication size). Table I counts transmitted float32 values, so each
// algorithm carries a documented conversion factor and tolerance:
//
//   - PS-PSGD (dense codec): factor 1 — 2N values = N up + N down, exact.
//   - FedAvg (dense): factor = participation fraction — Table I assumes
//     every worker participates every round; only the chosen fraction does.
//   - S-FedAvg (random-k + dense down): factor = fraction. The (N + 2N/c)
//     row already prices the k explicit indices at one extra value each, so
//     only participation scales it. Evaluated at k = ⌊N/c⌋ (tolerance 5%).
//   - PSGD (dense, halving/doubling collective): factor 2(n-1)/n — the
//     butterfly ships 2·N·(n-1)/n values each way, and volume counts both
//     directions where Table I's 2N counts the classic ring's per-worker
//     send volume. Exact for power-of-two n with n | N.
//   - TopK-PSGD (top-k codec): factor 2(n-1)/n — the 8-byte (index, value)
//     entries double the 4-byte value count, cancelling against Table I's
//     n-vs-(n-1) gather count. Evaluated at k = ⌊N/c⌋ (tolerance 5%).
//   - D-PSGD (dense, ring neighborhood): factor 1/2 — Table I's 4·np·N
//     prices each neighbor coordinate at both endpoints; a single worker's
//     endpoint volume is half that.
//   - DCD-PSGD (top-k): factor 1 — the halved endpoint volume and the
//     doubled entry size cancel exactly. Tolerance 5% for ⌊N/c⌋.
//   - SAPS-PSGD (shared-seed masked codec): factor 1, tolerance 15% — the
//     Bernoulli(1/c) mask makes the payload stochastic around N/c.
func TestMeasuredTrafficMatchesTableI(t *testing.T) {
	const (
		n, rounds, seed       = 8, 4, 7
		topkC, sfedC, dcdC    = 20, 10, 4
		sapsC                 = 10
		fedFrac, fedLocalStep = 0.5, 4
	)
	train, _ := dataset.ImageTask("traffic-check", 1, 8, 8, 4, 0.4, 256, 64, 3)
	shards := dataset.PartitionIID(train, n, seed)
	newModel := func() *nn.Model { return nn.NewMLP(64, []int{12}, 4, seed) }
	dim := newModel().ParamCount()
	bw := netsim.RandomUniform(n, 0, 5, rng.New(seed))
	fleet := func() FleetConfig {
		return FleetConfig{N: n, Factory: newModel, Shards: shards, LR: 0.05, Batch: 8, Seed: seed}
	}

	// Table I per-round worker cost in values (T = 1, np = 2 on the ring).
	// The sparsifying codecs run at k = ⌊N/c⌋ while the table divides by
	// real-valued c; the 5% tolerance absorbs the flooring.
	costAt := func(name string, c float64) float64 {
		if c == 0 {
			c = 1
		}
		return tableIWorkerCost[name](costParams{N: dim, n: n, C: c, T: 1, Np: 2})
	}
	// volume is the mean per-worker per-round endpoint bytes of a run.
	volume := func(alg Algorithm) (perWorker float64, total int64) {
		led := &engine.CountingLedger{}
		for r := 0; r < rounds; r++ {
			alg.Step(r, led)
		}
		var sum int64
		for i := 0; i < n; i++ {
			s, rcv := led.WorkerBytes(i)
			sum += s + rcv
		}
		return float64(sum) / float64(n) / float64(rounds), led.TotalBytes()
	}

	cases := []struct {
		name      string
		build     func() Algorithm
		c         float64
		factor    float64
		tolerance float64
	}{
		{"PSGD", func() Algorithm { return NewPSGD(fleet()) }, 0, 2 * float64(n-1) / float64(n), 1e-9},
		{"TopK-PSGD", func() Algorithm { return NewTopKPSGD(fleet(), topkC) }, topkC, 2 * float64(n-1) / float64(n), 0.05},
		{"FedAvg", func() Algorithm { return NewFedAvg(fleet(), bw, fedFrac, fedLocalStep) }, 0, fedFrac, 1e-9},
		{"S-FedAvg", func() Algorithm { return NewSFedAvg(fleet(), bw, fedFrac, fedLocalStep, sfedC) }, sfedC, fedFrac, 0.05},
		{"D-PSGD", func() Algorithm { return NewDPSGD(fleet()) }, 0, 0.5, 1e-9},
		{"DCD-PSGD", func() Algorithm { return NewDCDPSGD(fleet(), dcdC) }, dcdC, 1, 0.05},
		{"PS-PSGD", func() Algorithm { return NewPSPSGD(fleet(), bw) }, 0, 1, 1e-9},
		{"SAPS-PSGD", func() Algorithm {
			return NewSAPS(fleet(), bw, core.Config{
				Workers: n, Compression: sapsC, LR: 0.05, Batch: 8, LocalSteps: 1,
				Gossip: gossip.Config{BThres: 0, TThres: 10}, Seed: seed,
			})
		}, sapsC, 1, 0.15},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			measured, _ := volume(tc.build())
			want := tc.factor * costAt(tc.name, tc.c) * compress.BytesPerValue
			if diff := math.Abs(measured-want) / want; diff > tc.tolerance {
				t.Fatalf("%s: measured %.1f bytes/worker/round, Table I × %.3f = %.1f (off by %.1f%%, tolerance %.0f%%)",
					tc.name, measured, tc.factor, want, 100*diff, 100*tc.tolerance)
			}
		})
	}

	// QSGD has no Table I row; check its exact packed wire size instead:
	// per pair and direction, 4 norm bytes + 4 bits per coordinate at
	// s = 4 levels (9 symbols).
	t.Run("QSGD-PSGD", func(t *testing.T) {
		t.Parallel()
		_, total := volume(NewQSGDPSGD(fleet(), 4))
		perPayload := compress.QuantizedWireBytes(dim, 4)
		want := int64(n) * int64(n-1) * perPayload * int64(rounds)
		if total != want {
			t.Fatalf("QSGD total %d bytes, want %d (n·(n-1) payloads of %d bytes per round)", total, want, perPayload)
		}
	})
}

// TestQSGDLevelsNarrowerThanFloat32: Validate's code width is the one the
// ledger charges, and the boundary sits where a code stops saving anything.
func TestQSGDLevelsNarrowerThanFloat32(t *testing.T) {
	rec := Recipe{Algo: "qsgd-psgd", Workers: 2, LR: 0.1, Batch: 1, Levels: 1<<30 - 1}
	if err := rec.Validate(); err != nil {
		t.Fatalf("31-bit codes rejected: %v", err)
	}
	if got := compress.QuantizedWireBytes(8, rec.Levels); got != 4+31 {
		t.Fatalf("levels %d charge %d bytes for 8 codes, want 4 + 31", rec.Levels, got)
	}
	rec.Levels = 1 << 30
	if err := rec.Validate(); err == nil || compress.QuantizedWireBytes(8, rec.Levels) != 4+32 {
		t.Fatalf("32-bit codes accepted (error %v)", err)
	}
}
