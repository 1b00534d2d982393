package scenario

import (
	"runtime"
	"strings"
	"testing"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/obs"
)

// plannerBase is a full-training SAPS spec small enough to run both ways.
func plannerBase() *Spec {
	return &Spec{
		SchemaVersion: SpecSchemaVersion,
		Name:          "planner-equiv",
		Algo:          "saps",
		Nodes:         10,
		Rounds:        8,
		Seed:          21,
		LR:            0.05,
		Batch:         8,
		Compression:   20,
		Gossip:        &GossipSpec{BThres: 1, TThres: 4},
		Model:         ModelSpec{Hidden: []int{16}},
		Data:          DataSpec{Samples: 120, Classes: 4},
		Bandwidth:     BandwidthSpec{Kind: "uniform", Lo: 0.5, Hi: 5},
	}
}

// TestPlannerOnlyMatchesFullRun is the planner-only path's correctness
// anchor: on a spec small enough to train, the coordinator-side replay must
// charge exactly the bytes and simulated seconds of the full run — same mask
// seed stream, same matchings, same per-pair payloads.
func TestPlannerOnlyMatchesFullRun(t *testing.T) {
	for _, kind := range []string{"uniform", "sparse-uniform"} {
		full := plannerBase()
		if kind == "sparse-uniform" {
			full.Bandwidth = BandwidthSpec{Kind: "sparse-uniform", Lo: 0.5, Hi: 5, Degree: 4}
		}
		fr, err := runResult(full, 0)
		if err != nil {
			t.Fatalf("%s full run: %v", kind, err)
		}
		planner := full.Clone()
		planner.PlannerOnly = true
		pr, err := runResult(planner, 0)
		if err != nil {
			t.Fatalf("%s planner run: %v", kind, err)
		}
		if fr.TotalBytes == 0 {
			t.Fatalf("%s: full run moved no bytes", kind)
		}
		if pr.TotalBytes != fr.TotalBytes {
			t.Errorf("%s: planner-only bytes %d, full run %d", kind, pr.TotalBytes, fr.TotalBytes)
		}
		if pr.SimSeconds != fr.SimSeconds {
			t.Errorf("%s: planner-only sim time %v, full run %v", kind, pr.SimSeconds, fr.SimSeconds)
		}
	}
}

// TestPlannerOnlyMovesEngineCounters: a planner-only run is charged by the
// same engine.Driver as a fleet, so with obs on it ends with
// engine_rounds_total at its rounds and the wire and simulated-seconds
// counters at its result — it used to bypass the driver and move none.
func TestPlannerOnlyMovesEngineCounters(t *testing.T) {
	metrics := obs.New()
	obs.Enable(metrics)
	defer obs.Enable(nil)
	s := plannerBase()
	s.PlannerOnly = true
	res, err := runResult(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	em := metrics.EngineM()
	if got := em.RoundsTotal.Value(); got != int64(s.Rounds) {
		t.Errorf("engine_rounds_total %d, want %d", got, s.Rounds)
	}
	if got := em.WireBytesTotal.Value(); got != res.TotalBytes || got == 0 {
		t.Errorf("engine_wire_bytes_total %d, run moved %d", got, res.TotalBytes)
	}
	if got := em.SimSecondsTotal.Value(); got != res.SimSeconds {
		t.Errorf("engine_sim_seconds_total %v, run took %v", got, res.SimSeconds)
	}
}

// TestMLPParamCountMatchesModel guards the dimension the planner-only path
// masks over: the closed-form count must equal the real model's.
func TestMLPParamCountMatchesModel(t *testing.T) {
	for _, hidden := range [][]int{nil, {16}, {64, 32}} {
		want := nn.NewMLP(dataset.TinyInputDim, hidden, 10, 1).ParamCount()
		if got := nn.MLPParamCount(dataset.TinyInputDim, hidden, 10); got != want {
			t.Fatalf("hidden %v: MLPParamCount %d, model has %d", hidden, got, want)
		}
	}
}

// TestSparseScenarioTrains runs full SAPS training over a sparse CSR
// environment end to end (the sparse kinds are not planner-only-restricted).
func TestSparseScenarioTrains(t *testing.T) {
	s, err := Load("testdata/saps-sparse-small.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runResult(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes <= 0 || res.SimSeconds <= 0 {
		t.Fatalf("sparse training run accounted nothing: %+v", res)
	}
	if res.FinalLoss <= 0 {
		t.Fatalf("sparse training run has no loss: %+v", res)
	}
}

// TestSparseRefusesAllPairsAlgos: an algorithm that may exchange between any
// two nodes (psgd's all-reduce, the all-gathers, randomchoose's uniform
// matching) over a sparse environment is refused by name, planner-only
// randomchoose included — not run until the ledger meets a missing link.
func TestSparseRefusesAllPairsAlgos(t *testing.T) {
	kinds := []BandwidthSpec{
		{Kind: "sparse-clustered", Clusters: 3, Fast: 8, Slow: 1, Degree: 6},
		{Kind: "sparse-uniform", Lo: 0.5, Hi: 5, Degree: 6},
	}
	type variant struct {
		algo        string
		plannerOnly bool
	}
	var variants []variant
	for _, algo := range []string{"psgd", "topk-psgd", "qsgd-psgd", "randomchoose"} {
		variants = append(variants, variant{algo, false})
	}
	variants = append(variants, variant{"randomchoose", true})
	for _, v := range variants {
		for _, bw := range kinds {
			name := v.algo + "/" + bw.Kind
			if v.plannerOnly {
				name += "/planner_only"
			}
			t.Run(name, func(t *testing.T) {
				s, err := Load("testdata/saps-sparse-small.json")
				if err != nil {
					t.Fatal(err)
				}
				s.Algo, s.Gossip, s.Bandwidth, s.PlannerOnly = v.algo, nil, bw, v.plannerOnly
				s.C, s.Levels = 4, 8
				if v.algo != "randomchoose" {
					s.Compression = 0
				}
				_, err = runResult(s, 0)
				if err == nil || !strings.Contains(err.Error(), "algo "+v.algo+" ") || !strings.Contains(err.Error(), bw.Kind) {
					t.Fatalf("error %v, want one naming algo %s and %s", err, v.algo, bw.Kind)
				}
			})
		}
	}
}

// TestLargeNSpecsLoad validates the committed large-N capsules without
// running them (TestPlannerOnly10kStaysSparse runs the 10k one; the 50k one
// runs off-CI through cmd/campaign), and pins that they live outside the
// default sweep directory.
func TestLargeNSpecsLoad(t *testing.T) {
	for _, path := range []string{
		"testdata/largen/saps-10k-planner.json",
		"testdata/largen/saps-50k-planner.json",
	} {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !s.PlannerOnly || !strings.HasPrefix(s.Bandwidth.Kind, "sparse-") {
			t.Fatalf("%s: large-N capsule must be planner_only over a sparse environment", path)
		}
	}
	sweep, err := LoadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sweep {
		if s.Nodes > 1000 {
			t.Fatalf("default sweep picked up large-N spec %s (%d nodes)", s.Name, s.Nodes)
		}
	}
}

// TestPlannerOnlyValidation pins the planner_only and sparse-kind rejection
// rules.
func TestPlannerOnlyValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"planner_only on non-saps", func(s *Spec) { s.Algo, s.Compression = "psgd", 0; s.PlannerOnly = true }, "requires algo saps"},
		{"planner_only with churn", func(s *Spec) {
			s.PlannerOnly = true
			s.Churn = &ChurnSpec{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 2}
		}, "excludes churn"},
		{"sparse degree too small", func(s *Spec) {
			s.Bandwidth = BandwidthSpec{Kind: "sparse-uniform", Lo: 1, Hi: 5, Degree: 1}
		}, "degree 1"},
		{"sparse degree too large", func(s *Spec) {
			s.Bandwidth = BandwidthSpec{Kind: "sparse-uniform", Lo: 1, Hi: 5, Degree: 10}
		}, "degree 10"},
		{"sparse-clustered without speeds", func(s *Spec) {
			s.Bandwidth = BandwidthSpec{Kind: "sparse-clustered", Clusters: 2, Degree: 4}
		}, "sparse-clustered bandwidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := plannerBase()
			tc.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestPlannerOnly10kStaysSparse is the large-N memory gate: the committed
// 10k-node capsule must plan, mask-account and charge its 20 rounds without
// ever materialising an N×N structure, so a dense-path reintroduction fails
// here on memory long before it would fail anywhere on time. The limit is
// half of one dense 10000² float64 matrix; the run peaks near 27 MB.
func TestPlannerOnly10kStaysSparse(t *testing.T) {
	s, err := Load("testdata/largen/saps-10k-planner.json")
	if err != nil {
		t.Fatal(err)
	}
	first, err := runResult(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runResult(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalBytes == 0 || first.TotalBytes != second.TotalBytes {
		t.Errorf("planner-only traffic not reproducible: %d then %d bytes", first.TotalBytes, second.TotalBytes)
	}
	// Only Linux reads a resettable high-water mark (profiling.PeakRSS).
	const limit = 400 << 20
	if runtime.GOOS == "linux" && first.PeakRSSBytes >= limit {
		t.Errorf("peak RSS %d MB over the 10k planner run, want under %d MB", first.PeakRSSBytes>>20, limit>>20)
	}
}
