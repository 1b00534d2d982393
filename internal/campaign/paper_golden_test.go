package campaign

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sapspsgd/internal/scenario"
)

// readPaperGolden parses testdata/paper_harness.golden: one run per line,
// "<algo>/<partition> round=… acc=… loss=… mb=… sim=…".
func readPaperGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "paper_harness.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		out[key] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenLine renders a cell's evaluation series in the golden file's form.
func goldenLine(evals scenario.Evals) string {
	cols := make([][]string, 5)
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, e := range evals {
		cols[0] = append(cols[0], strconv.Itoa(e.Round))
		cols[1] = append(cols[1], bits(e.ValAcc))
		cols[2] = append(cols[2], bits(e.ValLoss))
		cols[3] = append(cols[3], bits(e.TrafficMB))
		cols[4] = append(cols[4], bits(e.TimeSec))
	}
	var parts []string
	for i, name := range []string{"round", "acc", "loss", "mb", "sim"} {
		parts = append(parts, name+"="+strings.Join(cols[i], ","))
	}
	return strings.Join(parts, " ")
}

// variantCampaign derives a campaign over an edited copy of base, written
// to a temporary directory.
func variantCampaign(t *testing.T, base *scenario.Spec, name string, grid Grid, edit func(*scenario.Spec)) *Spec {
	t.Helper()
	b := base.Clone()
	edit(b)
	canon, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+"-base.json")
	if err := os.WriteFile(path, canon, 0o644); err != nil {
		t.Fatal(err)
	}
	return &Spec{SchemaVersion: SpecSchemaVersion, Name: name, Base: path, Grid: grid}
}

// runCells runs the campaign into a fresh directory and returns its cell
// results in run-matrix order, with the directory.
func runCells(t *testing.T, c *Spec) ([]Cell, []*CellResult, string) {
	t.Helper()
	out := t.TempDir()
	if _, err := Run(c, Options{OutDir: out}); err != nil {
		t.Fatal(err)
	}
	bases, err := c.LoadBase()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := c.Expand(bases...)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*CellResult, len(cells))
	for i, cell := range cells {
		if results[i], err = readCellResult(out, cell); err != nil {
			t.Fatal(err)
		}
	}
	return cells, results, out
}

// TestPaperHarnessGolden is the cross-commit oracle of the "one harness"
// refactor: testdata/paper_harness.golden was recorded at the last commit
// that had the PR 1-era stack (experiments.BuildAlgorithmSharded +
// trainer.Run, default evaluation cadence) and pins, per evaluation point,
// the bits of validation accuracy, validation loss, per-worker traffic and
// simulated time of the paper's seven algorithms and RandomChoose, IID and
// label-sharded, plus SAPS under churn and two ResNet runs (whose
// evaluation depends on which model instance's BatchNorm statistics host
// the averaged parameters). The same runs expressed as campaign specs must
// reproduce it through campaign.Run's cell files, at one engine shard and
// at the default one-per-CPU.
func TestPaperHarnessGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("19 CNN training runs per shard count")
	}
	golden := readPaperGolden(t)
	c, err := Load(filepath.Join("testdata", "paper-oracle.json"))
	if err != nil {
		t.Fatal(err)
	}
	bases, err := c.LoadBase()
	if err != nil {
		t.Fatal(err)
	}
	base := bases[0]
	// Churn has no grid axis and the model is not swept, so those runs are
	// the same base with one block changed.
	variant := func(name string, algos []string, edit func(*scenario.Spec)) *Spec {
		return variantCampaign(t, base, name, Grid{Algo: algos}, edit)
	}
	campaigns := []struct {
		spec *Spec
		key  func(cellID string) string // cell ID (shard suffix trimmed) → golden key
	}{
		{c, func(id string) string { return strings.Replace(id, "_", "/", 1) }},
		{variant("paper-oracle-churn", []string{"saps"}, func(s *scenario.Spec) {
			s.Churn = &scenario.ChurnSpec{LeaveProb: 0.1, JoinProb: 0.5, MinActive: 4}
		}), func(string) string { return "saps-churn/iid" }},
		{variant("paper-oracle-resnet", []string{"d-psgd", "saps"}, func(s *scenario.Spec) {
			s.LR = 0.1
			s.Model = scenario.ModelSpec{Arch: "resnet", Width: 0.25, Blocks: 1}
			s.Data.C, s.Data.Seed = 3, 17
		}), func(id string) string { return id + "@resnet/iid" }},
	}
	checked := 0
	for _, shards := range []int{0, 1} {
		suffix := ""
		if shards > 0 {
			suffix = "_sh" + strconv.Itoa(shards)
		}
		for _, camp := range campaigns {
			if shards > 0 {
				camp.spec.Grid.Shards = []int{shards}
			}
			_, results, out := runCells(t, camp.spec)
			for _, res := range results {
				key := camp.key(strings.TrimSuffix(res.Cell, suffix))
				want, ok := golden[key]
				if !ok {
					t.Fatalf("no golden record for cell %s (key %s)", res.Cell, key)
				}
				if got := goldenLine(res.Evals); got != want {
					t.Errorf("shards=%d %s drifted from the recorded harness:\n got  %s\n want %s", shards, key, got, want)
				}
				checked++
			}
			for _, f := range []string{"accuracy_vs_epoch.csv", "accuracy_vs_traffic.csv",
				"accuracy_vs_sim_seconds.csv", "final_accuracy.md", "final_accuracy.csv"} {
				if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
					t.Errorf("%s: missing accuracy artifact %s (%v)", camp.spec.Name, f, err)
				}
			}
		}
	}
	if checked != 2*len(golden) {
		t.Fatalf("checked %d cells against %d golden records × 2 shard counts", checked, len(golden))
	}
}
