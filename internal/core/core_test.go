package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

func testConfig(n int) Config {
	return Config{
		Workers:     n,
		Compression: 4,
		LR:          0.05,
		Batch:       8,
		LocalSteps:  1,
		Gossip:      gossip.Config{BThres: 0, TThres: 5},
		Seed:        3,
	}
}

func buildWorkers(t *testing.T, n int, cfg Config) []*Worker {
	t.Helper()
	tr, _ := dataset.TinyTask(200, 3, 5)
	shards := dataset.PartitionIID(tr, n, 1)
	ws := make([]*Worker, n)
	for i := range ws {
		model := nn.NewMLP(tr.Dim(), []int{8}, 3, cfg.Seed) // same init everywhere
		ws[i] = newTestWorker(i, model, shards[i], cfg)
	}
	return ws
}

// newTestWorker builds rank's worker as the saps recipe does.
func newTestWorker(rank int, model *nn.Model, shard *dataset.Dataset, cfg Config) *Worker {
	t := NewTrainer(model, shard, cfg.Batch, cfg.LR, cfg.Seed+uint64(rank)*7919)
	return NewWorker(t, cfg.Compression, cfg.LocalSteps)
}

// maskedPayload is the message a worker sends its peer (Algorithm 2 line 7):
// x̃ = x ∘ m packed, exactly as the engine's Masked codec extracts it from
// the model's live parameters under the round's mask.
func maskedPayload(w *Worker, mask []int32) []float64 {
	x, _ := w.Model.Flat()
	return compress.ExtractInto(nil, x, mask)
}

func params(w *Worker) []float64 { return w.Model.FlatParams(nil) }

func mergePeer(t testing.TB, w *Worker, peer []float64) {
	t.Helper()
	if err := w.MergePeer(peer); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Workers = 1 },
		func(c *Config) { c.Compression = 0.5 },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.LocalSteps = 0 },
		func(c *Config) { c.Gossip.TThres = 0 },
	}
	for i, mutate := range bads {
		c := testConfig(4)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestWorkersShareMask(t *testing.T) {
	cfg := testConfig(4)
	ws := buildWorkers(t, 4, cfg)
	ref := ws[0].RoundMask(99, 7)
	for rank, w := range ws[1:] {
		if m := w.RoundMask(99, 7); !slices.Equal(m, ref) {
			t.Fatalf("worker %d mask differs: %d vs %d positions", rank+1, len(m), len(ref))
		}
	}
}

func TestMaskedExchangeAveragesExactly(t *testing.T) {
	cfg := testConfig(2)
	ws := buildWorkers(t, 2, cfg)
	// Give the two workers different known parameters.
	n := ws[0].Model.ParamCount()
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(2 * i)
	}
	ws[0].Model.SetFlatParams(a)
	ws[1].Model.SetFlatParams(b)

	mask := ws[0].RoundMask(5, 1)
	pa := maskedPayload(ws[0], mask)
	pb := maskedPayload(ws[1], ws[1].RoundMask(5, 1))
	mergePeer(t, ws[0], pb)
	mergePeer(t, ws[1], pa)

	on := make([]bool, n)
	for _, i := range mask {
		on[i] = true
	}
	ga := params(ws[0])
	gb := params(ws[1])
	for i := range ga {
		if on[i] {
			want := (a[i] + b[i]) / 2
			if ga[i] != want || gb[i] != want {
				t.Fatalf("masked coord %d: %v/%v, want %v", i, ga[i], gb[i], want)
			}
		} else {
			if ga[i] != a[i] || gb[i] != b[i] {
				t.Fatalf("unmasked coord %d modified", i)
			}
		}
	}
}

func TestMergePeerConservesMean(t *testing.T) {
	// The pairwise masked average must conserve the two-worker parameter sum
	// — the doubly stochastic invariant behind Theorem 1.
	cfg := testConfig(2)
	ws := buildWorkers(t, 2, cfg)
	r := rng.New(9)
	n := ws[0].Model.ParamCount()
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	ws[0].Model.SetFlatParams(a)
	ws[1].Model.SetFlatParams(b)
	sumBefore := tensor.Sum(a) + tensor.Sum(b)

	pa := maskedPayload(ws[0], ws[0].RoundMask(11, 2))
	pb := maskedPayload(ws[1], ws[1].RoundMask(11, 2))
	mergePeer(t, ws[0], pb)
	mergePeer(t, ws[1], pa)

	sumAfter := tensor.Sum(params(ws[0])) + tensor.Sum(params(ws[1]))
	if math.Abs(sumAfter-sumBefore) > 1e-9 {
		t.Fatalf("sum drifted: %v -> %v", sumBefore, sumAfter)
	}
}

// TestMergePeerWrongLenFails: a payload that does not match the mask's count
// — one word short, or far too long — is refused with both lengths, and the
// model is left as it was.
func TestMergePeerWrongLenFails(t *testing.T) {
	cfg := testConfig(2)
	ws := buildWorkers(t, 2, cfg)
	k := len(ws[0].RoundMask(1, 1))
	before := params(ws[0])
	for _, n := range []int{k - 1, 1e6} {
		err := ws[0].MergePeer(make([]float64, n))
		if want := fmt.Sprintf("peer payload %d values, mask has %d", n, k); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("payload of %d: error %v, want %q", n, err, want)
		}
	}
	if !slices.Equal(params(ws[0]), before) {
		t.Fatal("a refused payload changed the model")
	}
}

func TestPayloadBeforeMaskPanics(t *testing.T) {
	// A peer's payload cannot be interpreted before the round's mask is
	// drawn: even the empty payload must be refused, not merged as "no
	// masked coordinates".
	cfg := testConfig(2)
	ws := buildWorkers(t, 2, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ws[0].MergePeer(nil)
}

func TestGossipOnlyConsensus(t *testing.T) {
	// With learning disabled (no SGD), repeated masked gossip must drive all
	// workers to consensus — Theorem 1 with G = 0. This exercises the full
	// coordinator+worker loop.
	const n = 8
	cfg := testConfig(n)
	cfg.Compression = 2 // denser masks make the test fast
	ws := buildWorkers(t, n, cfg)
	// Distinct starting points.
	r := rng.New(13)
	for _, w := range ws {
		p := params(w)
		for i := range p {
			p[i] = r.NormFloat64()
		}
		w.Model.SetFlatParams(p)
	}
	bw := netsim.RandomUniform(n, 1, 5, rng.New(2))
	coord := NewCoordinator(bw, cfg)

	disagreement := func() float64 {
		dim := ws[0].Model.ParamCount()
		mean := make([]float64, dim)
		for _, w := range ws {
			tensor.Axpy(1/float64(n), params(w), mean)
		}
		total := 0.0
		diff := make([]float64, dim)
		for _, w := range ws {
			tensor.Sub(diff, params(w), mean)
			d := math.Sqrt(tensor.Dot(diff, diff))
			total += d * d
		}
		return total
	}

	before := disagreement()
	for round := 0; round < 150; round++ {
		plan := coord.Plan(round)
		payloads := make([][]float64, n)
		for i, w := range ws {
			payloads[i] = maskedPayload(w, w.RoundMask(plan.Seed, plan.Round))
		}
		for i, w := range ws {
			if peer := plan.Peer[i]; peer != -1 {
				mergePeer(t, w, payloads[peer])
			}
		}
	}
	after := disagreement()
	if after > before*1e-3 {
		t.Fatalf("disagreement %v -> %v: gossip did not contract", before, after)
	}
}

func TestConsensusRateMatchesLemma2(t *testing.T) {
	// Lemma 2 predicts contraction of E‖x − x̄‖² by (q + pρ²) per round.
	// Measure the empirical contraction of scalar gossip under the
	// generator's matchings and compare with the prediction computed from
	// the sampled Ws (allowing generous tolerance: single sample path).
	const n = 14
	bw := netsim.FourteenCities()
	gcfg := gossip.Config{BThres: 0.2, TThres: 5}
	gen := gossip.NewGenerator(bw, gcfg, 7)
	const p = 0.25 // mask keep probability
	const rounds = 400

	r := rng.New(31)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	dis := func(x []float64) float64 {
		mean := tensor.Mean(x)
		s := 0.0
		for _, v := range x {
			s += (v - mean) * (v - mean)
		}
		return s
	}
	d0 := dis(x)
	maskRng := rng.New(77)
	for t2 := 0; t2 < rounds; t2++ {
		round := gen.NextActive(t2, nil)
		if !maskRng.Bernoulli(p) {
			continue // this scalar coordinate not exchanged this round
		}
		for v, pr := range round.Match {
			if pr > v {
				avg := 0.5 * (x[v] + x[pr])
				x[v], x[pr] = avg, avg
			}
		}
	}
	dT := dis(x)
	if dT > d0*1e-4 {
		t.Fatalf("scalar gossip did not contract: %v -> %v over %d rounds", d0, dT, rounds)
	}
}

// TestReadStateRejectsMisSizedMomentum: a state blob whose momentum buffer
// does not fit the model is refused, naming both lengths, before the model
// changes — SGD.Step would otherwise restart momentum from zero unseen.
func TestReadStateRejectsMisSizedMomentum(t *testing.T) {
	tr := buildWorkers(t, 2, testConfig(2))[0].Trainer
	blob, err := tr.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	// No step has run, so the momentum section is the blob's empty last one.
	front := blob[:len(blob)-tensor.SectionSize(0)]
	n := tr.Model.ParamCount()
	bad := tensor.AppendVector(append([]byte(nil), front...), []float64{1, 2, 3})
	good := tensor.AppendVector(append([]byte(nil), front...), make([]float64, n))

	before := tr.Model.FlatParams(nil)
	other := make([]float64, n)
	tr.Model.SetFlatParams(other)
	_, err = tr.ReadState(bad)
	if err == nil || !strings.Contains(err.Error(), "3 words") || !strings.Contains(err.Error(), fmt.Sprintf("%d parameters", n)) {
		t.Fatalf("3-word momentum buffer: err = %v, want one naming 3 words and %d parameters", err, n)
	}
	for i, v := range tr.Model.FlatParams(nil) {
		if v != other[i] {
			t.Fatalf("a refused state changed parameter %d", i)
		}
	}
	if _, err := tr.ReadState(good); err != nil {
		t.Fatalf("a %d-word momentum buffer: %v", n, err)
	}
	for i, v := range tr.Model.FlatParams(nil) {
		if v != before[i] {
			t.Fatalf("parameter %d not restored", i)
		}
	}
	if got := tr.Opt.Velocity(); len(got) != n {
		t.Fatalf("restored momentum has %d words, want %d", len(got), n)
	}
}

func TestCoordinatorPlansDeterministic(t *testing.T) {
	bw := netsim.RandomUniform(8, 1, 5, rng.New(4))
	cfg := testConfig(8)
	a := NewCoordinator(bw, cfg)
	b := NewCoordinator(bw, cfg)
	for round := 0; round < 20; round++ {
		pa := a.Plan(round)
		pb := b.Plan(round)
		if pa.Seed != pb.Seed {
			t.Fatal("seeds diverge")
		}
		for i := range pa.Peer {
			if pa.Peer[i] != pb.Peer[i] {
				t.Fatal("peers diverge")
			}
		}
	}
}

// TestTrainerRestoreRefusesForeignLoader: a trainer state captured over a
// 10-sample shard does not fit a trainer over 12 samples. Restoring it is an
// error that names the loader, and the model keeps every parameter bit.
func TestTrainerRestoreRefusesForeignLoader(t *testing.T) {
	small, _ := dataset.TinyTask(10, 3, 5)
	large, _ := dataset.TinyTask(12, 3, 5)
	src := NewTrainer(nn.NewMLP(small.Dim(), []int{8}, 3, 1), small, 4, 0.1, 7)
	src.LocalSGD(2)
	state, err := src.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewTrainer(nn.NewMLP(large.Dim(), []int{8}, 3, 2), large, 4, 0.1, 7)
	before := dst.Model.FlatParams(nil)
	if err := dst.RestoreState(state); err == nil || !strings.Contains(err.Error(), "loader") {
		t.Fatalf("RestoreState error %v, want one naming the loader", err)
	}
	for i, v := range dst.Model.FlatParams(nil) {
		if math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("param %d moved from %v to %v on a refused restore", i, before[i], v)
		}
	}
}
