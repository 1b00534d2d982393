package campaign

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sapspsgd/internal/scenario"
)

// paperDir holds the committed paper campaigns (EXPERIMENTS.md's artifact
// map).
const paperDir = "../../campaigns/paper"

// TestCommittedPaperSpecs loads every spec under campaigns/ and
// internal/scenario/testdata: scenario specs must parse and validate, and
// an axis-free campaign over a directory holding one must run exactly that
// spec (the cell's canonical form is the base's, byte for byte — the grid
// overrides nothing it was not asked to); campaign specs must expand against
// their base. A spec that went stale against the schema fails here, not in a
// nightly run.
func TestCommittedPaperSpecs(t *testing.T) {
	cellCount := map[string]int{}
	visit := func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var probe struct {
			Grid json.RawMessage `json:"grid"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		if probe.Grid == nil {
			s, err := scenario.Load(path)
			if err != nil {
				t.Errorf("scenario %v", err)
				return nil
			}
			free := &Spec{SchemaVersion: SpecSchemaVersion, Name: "axis-free", Base: filepath.Dir(path), baseIsDir: true}
			cells, err := free.Expand(s)
			if err != nil || len(cells) != 1 {
				t.Errorf("%s: axis-free expansion: %d cells, %v", path, len(cells), err)
				return nil
			}
			want, _ := s.Canonical()
			if got, _ := cells[0].Spec.Canonical(); !bytes.Equal(got, want) {
				t.Errorf("%s: the axis-free cell is not the base:\n%s\nwant\n%s", path, got, want)
			}
			return nil
		}
		c, err := Load(path)
		if err != nil {
			t.Errorf("campaign %v", err)
			return nil
		}
		bases, err := c.LoadBase()
		if err != nil {
			t.Errorf("%s: base: %v", path, err)
			return nil
		}
		cells, err := c.Expand(bases...)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
		cellCount[filepath.Base(path)] = len(cells)
		return nil
	}
	for _, root := range []string{"../../campaigns", "../scenario/testdata"} {
		if err := filepath.WalkDir(root, visit); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"convergence-mnist.json", "convergence-cifar.json", "convergence-resnet.json"} {
		if cellCount[name] != 7 {
			t.Errorf("%s expands to %d cells, want the paper's seven algorithms", name, cellCount[name])
		}
	}
}

// quickCampaign is the seven-algorithm comparison on a miniature task (an
// MLP on 8×8 images, 4 workers) so the paper's claims can be asserted over
// real campaign output in seconds. The million-parameter ratios of §IV-A
// would transmit almost nothing of a 1.4k-parameter model, so they are
// scaled down.
func quickCampaign(t *testing.T, name string, grid Grid) *Spec {
	t.Helper()
	oracle, err := Load(filepath.Join("testdata", "paper-oracle.json"))
	if err != nil {
		t.Fatal(err)
	}
	bases, err := oracle.LoadBase()
	if err != nil {
		t.Fatal(err)
	}
	c := variantCampaign(t, bases[0], name, grid, func(s *scenario.Spec) {
		s.Nodes, s.Rounds, s.LR, s.Batch, s.Gossip = 4, 60, 0.1, 16, nil
		s.Model = scenario.ModelSpec{Hidden: []int{16}}
		s.Data = scenario.DataSpec{Samples: 320, Classes: 4, C: 1, H: 8, W: 8, Valid: 80, Seed: 3}
	})
	c.PerAlgo = map[string]AlgoParams{
		"topk-psgd": {Compression: 50},
		"fedavg":    {LocalSteps: 4},
		"s-fedavg":  {Compression: 8, LocalSteps: 4},
		"dcd-psgd":  {Compression: 4},
	}
	for algo := range c.PerAlgo {
		if !slices.Contains(grid.Algo, algo) {
			delete(c.PerAlgo, algo)
		}
	}
	return c
}

var paperSeven = []string{"psgd", "topk-psgd", "fedavg", "s-fedavg", "d-psgd", "dcd-psgd", "saps"}

// TestSevenAlgorithmsConvergeAndSAPSMovesLeast is the paper's headline
// comparison (Figs 3/4, Table III) at unit-test scale: all seven algorithms
// learn, and SAPS-PSGD has the lowest per-worker traffic of the seven.
func TestSevenAlgorithmsConvergeAndSAPSMovesLeast(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence suite skipped in -short mode")
	}
	c := quickCampaign(t, "quick-seven", Grid{Algo: paperSeven})
	c.TargetAcc = 0.5
	_, results, out := runCells(t, c)
	traffic := map[string]float64{}
	for i, r := range results {
		if r.Algo != paperSeven[i] {
			t.Fatalf("order: %s vs %s", r.Algo, paperSeven[i])
		}
		f := r.Evals.Final()
		if math.IsNaN(f.ValAcc) || f.ValAcc < 0.3 {
			t.Fatalf("%s final accuracy %v", r.Algo, f.ValAcc)
		}
		if f.TrafficMB <= 0 || f.TimeSec <= 0 {
			t.Fatalf("%s ledger empty: %+v", r.Algo, f)
		}
		traffic[r.Algo] = f.TrafficMB
	}
	for algo, v := range traffic {
		if algo != "saps" && traffic["saps"] >= v {
			t.Fatalf("SAPS traffic %v >= %s traffic %v", traffic["saps"], algo, v)
		}
	}
	ttt, err := os.ReadFile(filepath.Join(out, "time_to_target.md"))
	if err != nil || !strings.Contains(string(ttt), "50.00%") || strings.Count(string(ttt), "\n") != 11 {
		t.Fatalf("time_to_target.md (%v):\n%s", err, ttt)
	}
}

// TestNonIIDCellsLearn is the label-skew extension: SAPS-PSGD and D-PSGD
// still learn when every worker holds two label shards.
func TestNonIIDCellsLearn(t *testing.T) {
	c := quickCampaign(t, "quick-noniid", Grid{
		Algo:      []string{"saps", "d-psgd"},
		Rounds:    []int{40},
		Partition: []GridPartition{{PartitionSpec: scenario.PartitionSpec{Kind: "label"}}},
	})
	_, results, _ := runCells(t, c)
	for _, r := range results {
		if acc := r.Evals.Final().ValAcc; acc < 0.3 {
			t.Fatalf("%s non-IID accuracy %v", r.Cell, acc)
		}
	}
}

// TestCompressionSweepTrafficScales is the compression ablation's claim:
// SAPS-PSGD's traffic scales as 1/c.
func TestCompressionSweepTrafficScales(t *testing.T) {
	c := quickCampaign(t, "quick-compression", Grid{
		Algo: []string{"saps"}, Rounds: []int{40}, Compression: []float64{2, 8},
	})
	_, results, _ := runCells(t, c)
	ratio := results[0].Evals.Final().TrafficMB / results[1].Evals.Final().TrafficMB
	if ratio < 3 || ratio > 5 {
		t.Fatalf("traffic ratio c2/c8 = %v, want ~4", ratio)
	}
}

// TestFig5AdaptiveBeatsRandomBeatsRing runs the committed Fig. 5 campaigns
// (shortened) and checks the figure's finding on both environments:
// Algorithm 3's matched bandwidth is above a uniformly random matching's,
// which on the 32-worker random environment is above the static ring's.
func TestFig5AdaptiveBeatsRandomBeatsRing(t *testing.T) {
	for _, tc := range []struct {
		file            string
		rounds          int
		randomBeatsRing bool
	}{
		{"fig5a-cities.json", 100, false},
		{"fig5b-random32.json", 60, true},
	} {
		c, err := Load(filepath.Join(paperDir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		c.Grid.Rounds = []int{tc.rounds}
		cells, results, out := runCells(t, c)
		mean := map[string]float64{}
		for _, r := range results {
			if len(r.MatchedMBps) != tc.rounds {
				t.Fatalf("%s %s: %d matched-bandwidth points for %d rounds", tc.file, r.Cell, len(r.MatchedMBps), tc.rounds)
			}
			for _, v := range r.MatchedMBps {
				mean[r.Algo] += v / float64(tc.rounds)
			}
		}
		ring := ringMBps(cells[0].Spec)
		saps, random := mean["saps"], mean["randomchoose"]
		if saps <= random || saps <= ring || ring <= 0 {
			t.Fatalf("%s: saps %v, random %v, ring %v", tc.file, saps, random, ring)
		}
		if tc.randomBeatsRing && random <= ring {
			t.Fatalf("%s: expected random > ring, got %v vs %v", tc.file, random, ring)
		}
		for _, f := range []string{"matched_bandwidth_vs_round.csv", "matched_bandwidth.md", "matched_bandwidth.csv"} {
			if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: missing Fig. 5 artifact %s (%v)", tc.file, f, err)
			}
		}
	}
}
