package campaign

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sapspsgd/internal/scenario"
)

// loadExample loads the committed example campaign and its base scenario.
func loadExample(t *testing.T) (*Spec, *scenario.Spec) {
	t.Helper()
	c, err := Load(filepath.Join("testdata", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	bases, err := c.LoadBase()
	if err != nil {
		t.Fatal(err)
	}
	return c, bases[0]
}

// TestExpandDeterministic pins the run-matrix contract: the committed
// example expands to at least eight cells, expansion is a pure function of
// the specs (identical IDs, order and SHAs on repeat), IDs are unique, and
// every cell spec validates.
func TestExpandDeterministic(t *testing.T) {
	c, base := loadExample(t)
	first, err := c.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 8 {
		t.Fatalf("example campaign expands to %d cells, want >= 8", len(first))
	}
	second, err := c.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("expansion size changed: %d vs %d", len(first), len(second))
	}
	seen := map[string]bool{}
	for i := range first {
		if first[i].ID != second[i].ID || first[i].SHA != second[i].SHA || first[i].Index != i {
			t.Fatalf("cell %d drifted: (%s, %s, %d) vs (%s, %s, %d)",
				i, first[i].ID, first[i].SHA, first[i].Index, second[i].ID, second[i].SHA, second[i].Index)
		}
		if seen[first[i].ID] {
			t.Fatalf("duplicate cell id %s", first[i].ID)
		}
		seen[first[i].ID] = true
		if err := first[i].Spec.Validate(); err != nil {
			t.Fatalf("cell %s does not validate: %v", first[i].ID, err)
		}
	}
}

// TestCompressionAxisCollapses pins the ratio-knob rule: algorithms without
// a compression knob yield one cell per remaining grid point however many
// ratios are swept, while knobbed algorithms get one cell per ratio.
func TestCompressionAxisCollapses(t *testing.T) {
	c, base := loadExample(t)
	c.Grid = Grid{Algo: []string{"saps", "psgd"}, Compression: []float64{10, 100}}
	cells, err := c.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, cell := range cells {
		ids = append(ids, cell.ID)
	}
	want := []string{"saps_c10", "saps_c100", "psgd"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("cells %v, want %v", ids, want)
	}
	if cells[0].Spec.Compression != 10 || cells[1].Spec.Compression != 100 {
		t.Fatalf("saps compression knobs %v/%v", cells[0].Spec.Compression, cells[1].Spec.Compression)
	}
	if cells[2].Spec.Compression != 0 || cells[2].Compression != 0 {
		t.Fatalf("psgd cell carries a compression ratio")
	}

	// A compression-only grid over a knobless base algorithm collapses to
	// one cell with the fallback ID (no swept axis contributes a part).
	c.Grid = Grid{Compression: []float64{10, 100}}
	base2 := base.Clone()
	base2.Algo, base2.Compression = "psgd", 0
	only, err := c.Expand(base2)
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 1 || only[0].ID != "base" {
		t.Fatalf("fully collapsed grid: %d cells, id %q", len(only), only[0].ID)
	}
}

// TestPerAlgoParams pins the per-algorithm hyperparameters: an entry lands
// on its algorithm's own knobs only, the compression axis overrides its
// ratio, and randomchoose keeps the base's saps compression.
func TestPerAlgoParams(t *testing.T) {
	c, base := loadExample(t)
	base.Fraction = 0.5
	c.Grid = Grid{Algo: []string{"saps", "randomchoose", "topk-psgd", "fedavg", "psgd"}}
	c.PerAlgo = map[string]AlgoParams{"topk-psgd": {Compression: 50}, "fedavg": {LocalSteps: 4}}
	cells, err := c.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*scenario.Spec{}
	for _, cell := range cells {
		got[cell.ID] = cell.Spec
	}
	if got["saps"].Compression != 100 || got["randomchoose"].Compression != 100 || got["saps"].LocalSteps != 0 {
		t.Fatalf("saps family: %+v / %+v", got["saps"], got["randomchoose"])
	}
	if got["topk-psgd"].C != 50 || cells[2].Compression != 50 || got["topk-psgd"].Compression != 0 {
		t.Fatalf("topk-psgd: c=%v label=%v", got["topk-psgd"].C, cells[2].Compression)
	}
	if got["fedavg"].LocalSteps != 4 || got["psgd"].LocalSteps != 0 {
		t.Fatalf("local steps leaked: fedavg %d psgd %d", got["fedavg"].LocalSteps, got["psgd"].LocalSteps)
	}
	c.Grid.Compression = []float64{25}
	c.Grid.Algo = []string{"topk-psgd"}
	delete(c.PerAlgo, "fedavg")
	cells, err = c.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Spec.C != 25 || cells[0].ID != "topk-psgd_c25" {
		t.Fatalf("compression axis did not override per_algo: %+v", cells)
	}
}

func TestCampaignRejectsMalformed(t *testing.T) {
	valid := `{
		"schema_version": 1, "name": "t", "base": "tiny-base.json",
		"grid": {"seeds": [1, 2]}
	}`
	cases := []struct {
		name string
		json string
		want string
	}{
		{"wrong schema version", strings.Replace(valid, `"schema_version": 1`, `"schema_version": 9`, 1), "schema_version"},
		{"missing name", strings.Replace(valid, `"name": "t"`, `"name": ""`, 1), "missing name"},
		{"missing base", strings.Replace(valid, `"base": "tiny-base.json"`, `"base": ""`, 1), "missing base"},
		{"unknown field", strings.Replace(valid, `"name": "t"`, `"name": "t", "warp": 9`, 1), "warp"},
		{"compression below one", strings.Replace(valid, `{"seeds": [1, 2]}`, `{"compression": [0.5]}`, 1), "compression ratio"},
		{"zero grid nodes", strings.Replace(valid, `{"seeds": [1, 2]}`, `{"nodes": [0]}`, 1), "grid nodes"},
		{"zero grid rounds", strings.Replace(valid, `{"seeds": [1, 2]}`, `{"rounds": [0]}`, 1), "grid rounds"},
		{"zero grid shards", strings.Replace(valid, `{"seeds": [1, 2]}`, `{"shards": [0]}`, 1), "grid shards"},
		{"target_acc above one", strings.Replace(valid, `"name": "t"`, `"name": "t", "target_acc": 1.5`, 1), "target_acc"},
		{"per_algo off the algo axis", strings.Replace(valid, `"name": "t"`,
			`"name": "t", "per_algo": {"topk-psgd": {"compression": 10}}`, 1), "not on the algo axis"},
		{"per_algo ratio on a knobless algorithm", strings.Replace(strings.Replace(valid, `{"seeds": [1, 2]}`, `{"algo": ["psgd"]}`, 1),
			`"name": "t"`, `"name": "t", "per_algo": {"psgd": {"compression": 10}}`, 1), "ratio knob"},
		{"per_algo negative local steps", strings.Replace(strings.Replace(valid, `{"seeds": [1, 2]}`, `{"algo": ["fedavg"]}`, 1),
			`"name": "t"`, `"name": "t", "per_algo": {"fedavg": {"local_steps": -1}}`, 1), "local_steps -1"},
		{"negative workers", strings.Replace(valid, `"base": "tiny-base.json"`, `"base": "tiny-base.json", "workers": -1`, 1), "workers"},
		{"duplicate bandwidth labels", strings.Replace(valid, `{"seeds": [1, 2]}`,
			`{"bandwidth": [{"kind": "uniform", "lo": 1, "hi": 5}, {"kind": "uniform", "lo": 2, "hi": 9}]}`, 1), "duplicate bandwidth label"},
		{"path-traversal bandwidth name", strings.Replace(valid, `{"seeds": [1, 2]}`,
			`{"bandwidth": [{"name": "../escape", "kind": "uniform", "lo": 1, "hi": 5}]}`, 1), "not filename-safe"},
		{"separator in bandwidth name", strings.Replace(valid, `{"seeds": [1, 2]}`,
			`{"bandwidth": [{"name": "a/b", "kind": "uniform", "lo": 1, "hi": 5}]}`, 1), "not filename-safe"},
		{"duplicate trace labels", strings.Replace(valid, `{"seeds": [1, 2]}`,
			`{"traces": [{"file": "a/edge.csv"}, {"file": "b/edge.csv"}]}`, 1), "duplicate trace label"},
		{"path-traversal trace name", strings.Replace(valid, `{"seeds": [1, 2]}`,
			`{"traces": [{"name": "../escape", "file": "edge.csv"}]}`, 1), "not filename-safe"},
		{"anonymous no-trace entry", strings.Replace(valid, `{"seeds": [1, 2]}`,
			`{"traces": [{"events": true}]}`, 1), "neither file nor name"},
		{"duplicate partition labels", strings.Replace(valid, `{"seeds": [1, 2]}`,
			`{"partition": [{"kind": "dirichlet", "alpha": 0.1}, {"kind": "dirichlet", "alpha": 0.5}]}`, 1), "duplicate partition label"},
		{"anonymous kindless partition entry", strings.Replace(valid, `{"seeds": [1, 2]}`,
			`{"partition": [{"alpha": 0.5}]}`, 1), "neither name nor kind"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json), "testdata")
			if err == nil {
				t.Fatalf("accepted a campaign with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestExpandRejectsInvalidCells checks grid-level problems that only
// surface per cell: invalid derived scenarios are reported with the cell
// ID, and duplicate axis values collide on their IDs.
func TestExpandRejectsInvalidCells(t *testing.T) {
	c, base := loadExample(t)
	c.Grid = Grid{Bandwidth: []GridBandwidth{{
		Name:          "cities",
		BandwidthSpec: scenario.BandwidthSpec{Kind: "cities"},
	}}}
	if _, err := c.Expand(base); err == nil || !strings.Contains(err.Error(), "cell cities") || !strings.Contains(err.Error(), "14 nodes") {
		t.Fatalf("cities/nodes mismatch not reported per cell: %v", err)
	}
	c.Grid = Grid{Seeds: []uint64{7, 7}}
	if _, err := c.Expand(base); err == nil || !strings.Contains(err.Error(), "share id") {
		t.Fatalf("duplicate axis values not caught: %v", err)
	}
}

// runExample executes the committed example campaign into dir and returns
// the executed cell IDs in completion order.
func runExample(t *testing.T, dir string, opts Options) (Stats, []string) {
	t.Helper()
	c, _ := loadExample(t)
	var (
		mu  sync.Mutex
		ids []string
	)
	opts.OutDir = dir
	opts.Observer = func(id string) {
		mu.Lock()
		ids = append(ids, id)
		mu.Unlock()
	}
	stats, err := Run(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return stats, ids
}

// aggregateArtifacts are the campaign outputs pinned byte-for-byte across
// repeat and resumed runs.
var aggregateArtifacts = []string{
	"aggregate.json", "summary.md", "summary.csv",
	"traffic_by_algo.md", "traffic_by_algo.csv",
	"loss_vs_round.csv", "loss_vs_bytes.csv",
}

// sameFileModes fails unless every regular file under dir has the mode of a
// file os.Create'd there: the run directory holds one mode, whatever the
// umask.
func sameFileModes(t *testing.T, dir string) {
	t.Helper()
	probe, err := os.Create(filepath.Join(dir, "mode-probe"))
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	defer os.Remove(probe.Name())
	fi, err := os.Stat(probe.Name())
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil && info.Mode() != fi.Mode() {
			t.Errorf("%s has mode %v, a file created beside it %v", path, info.Mode(), fi.Mode())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readArtifacts reads the aggregate artifacts of the campaign in dir.
func readArtifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range aggregateArtifacts {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data)
	}
	return out
}

// TestRunResumeAndDeterminism is the campaign acceptance gate: interrupt a
// campaign mid-flight (MaxCells), resume it, and verify no cell executed
// twice and every aggregate artifact is byte-identical to an uninterrupted
// run's. A third no-op invocation must skip everything. Every file of the
// run directory has one mode.
func TestRunResumeAndDeterminism(t *testing.T) {
	full := t.TempDir()
	statsFull, idsFull := runExample(t, full, Options{})
	if statsFull.Planned < 8 || statsFull.Executed != statsFull.Planned || !statsFull.Aggregated {
		t.Fatalf("uninterrupted run: %+v", statsFull)
	}
	sameFileModes(t, full)

	resumed := t.TempDir()
	statsA, idsA := runExample(t, resumed, Options{MaxCells: 3})
	if statsA.Executed != 3 || statsA.Remaining != statsFull.Planned-3 || statsA.Aggregated {
		t.Fatalf("interrupted run: %+v", statsA)
	}
	statsB, idsB := runExample(t, resumed, Options{})
	if statsB.Skipped != 3 || statsB.Executed != statsFull.Planned-3 || statsB.Remaining != 0 || !statsB.Aggregated {
		t.Fatalf("resumed run: %+v", statsB)
	}
	ran := map[string]int{}
	for _, id := range append(idsA, idsB...) {
		ran[id]++
	}
	if len(ran) != statsFull.Planned {
		t.Fatalf("interrupt+resume covered %d cells, want %d", len(ran), statsFull.Planned)
	}
	for id, n := range ran {
		if n != 1 {
			t.Fatalf("cell %s executed %d times across interrupt+resume", id, n)
		}
	}
	if len(idsFull) != statsFull.Planned {
		t.Fatalf("observer saw %d executions on the full run, want %d", len(idsFull), statsFull.Planned)
	}
	want, got := readArtifacts(t, full), readArtifacts(t, resumed)
	for _, name := range aggregateArtifacts {
		if got[name] != want[name] {
			t.Errorf("%s differs between the uninterrupted and resumed campaigns", name)
		}
	}

	statsC, idsC := runExample(t, resumed, Options{})
	if statsC.Executed != 0 || statsC.Skipped != statsFull.Planned || len(idsC) != 0 {
		t.Fatalf("no-op re-run executed cells: %+v", statsC)
	}
}

// TestRunRerunsCellWithLostDirectory: a cell the journal records but whose
// cells/<id>/ is gone — the rename a power loss can undo, since no directory
// is synced — runs again on the next invocation, alone, and the aggregates
// come out as the uninterrupted run's.
func TestRunRerunsCellWithLostDirectory(t *testing.T) {
	dir := t.TempDir()
	stats, ids := runExample(t, dir, Options{})
	if stats.Executed != stats.Planned {
		t.Fatalf("uninterrupted run: %+v", stats)
	}
	want := readArtifacts(t, dir)
	lost := ids[len(ids)/2]
	if err := os.RemoveAll(cellDir(dir, lost)); err != nil {
		t.Fatal(err)
	}
	stats, ids = runExample(t, dir, Options{})
	if stats.Executed != 1 || stats.Skipped != stats.Planned-1 || len(ids) != 1 || ids[0] != lost {
		t.Fatalf("after losing %s the re-run executed %v: %+v", lost, ids, stats)
	}
	got := readArtifacts(t, dir)
	for _, name := range aggregateArtifacts {
		if got[name] != want[name] {
			t.Errorf("%s differs after re-running the lost cell", name)
		}
	}
}

// TestLargeNCampaignExpands validates the committed large-N campaign capsule
// without running it (the 50k cell is an off-CI artifact, ~7 s/round on one
// core): every cell must stay planner-only over a sparse environment — the
// point of the capsule is that no cell ever materializes an N² bandwidth
// matrix or a per-rank model fleet.
func TestLargeNCampaignExpands(t *testing.T) {
	c, err := Load(filepath.Join("testdata", "largen.json"))
	if err != nil {
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
	if len(cells) != 3 {
		t.Fatalf("largen expands to %d cells, want 3", len(cells))
	}
	want50k := false
	for _, cell := range cells {
		if !cell.Spec.PlannerOnly {
			t.Errorf("cell %s lost planner_only", cell.ID)
		}
		if !strings.HasPrefix(cell.Spec.Bandwidth.Kind, "sparse-") {
			t.Errorf("cell %s runs over dense bandwidth kind %q", cell.ID, cell.Spec.Bandwidth.Kind)
		}
		if cell.Spec.Nodes == 50000 {
			want50k = true
		}
	}
	if !want50k {
		t.Fatal("largen campaign has no 50k-node cell")
	}
}

// TestPlannerOnlyCampaignRuns executes a scaled-down planner-only campaign
// end to end through the orchestrator: cells complete, account deterministic
// traffic, and aggregate without ever training a model (final loss is zero
// by construction on the planner-only path).
func TestPlannerOnlyCampaignRuns(t *testing.T) {
	spec := `{
		"schema_version": 1, "name": "largen-smoke", "base": "largen-base.json",
		"grid": {"nodes": [16, 32]}
	}`
	c, err := Parse([]byte(spec), "testdata")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stats, err := Run(c, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Planned != 2 || stats.Executed != 2 || !stats.Aggregated {
		t.Fatalf("planner-only campaign: %+v", stats)
	}
	for _, id := range []string{"n16", "n32"} {
		data, err := os.ReadFile(filepath.Join(cellDir(dir, id), cellRecord))
		if err != nil {
			t.Fatal(err)
		}
		var res CellResult
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		if res.TotalBytes <= 0 || res.SimSeconds <= 0 {
			t.Errorf("cell %s accounted nothing: %+v", id, res)
		}
		if res.FinalLoss != 0 {
			t.Errorf("cell %s reports a loss %v from a planner-only run", id, res.FinalLoss)
		}
	}
}

// TestManifestToleratesTornTail simulates the kill-mid-journal case: a
// truncated trailing line must not poison resume — its cell simply runs
// again — nor swallow the entry journaled after it, so a third invocation
// runs nothing.
func TestManifestToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	stats, _ := runExample(t, dir, Options{MaxCells: 2})
	if stats.Executed != 2 {
		t.Fatalf("setup: %+v", stats)
	}
	path := filepath.Join(dir, ManifestName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"cell":"saps_jittery_s1_c50","spec_sha":"deadbeef`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	stats2, _ := runExample(t, dir, Options{})
	if stats2.Skipped != 2 || stats2.Remaining != 0 || !stats2.Aggregated {
		t.Fatalf("resume over torn manifest: %+v", stats2)
	}
	stats3, ids := runExample(t, dir, Options{})
	if stats3.Executed != 0 || stats3.Skipped != stats3.Planned {
		t.Fatalf("second resume after a torn manifest re-ran %v: %+v", ids, stats3)
	}
}

// TestManifestRejectsStaleSpec pins the spec-hash guard: an entry recorded
// under a different cell definition must not count as done.
func TestManifestRejectsStaleSpec(t *testing.T) {
	entries, err := ReadManifest(filepath.Join(t.TempDir(), "missing.jsonl"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("missing manifest: %v, %d entries", err, len(entries))
	}

	dir := t.TempDir()
	if _, ids := runExample(t, dir, Options{}); len(ids) < 8 {
		t.Fatalf("setup executed %d cells", len(ids))
	}
	// Tamper with one journaled hash: exactly that cell must re-run.
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	lines[0] = strings.Replace(lines[0], `"spec_sha":"`, `"spec_sha":"0000`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stats, ids := runExample(t, dir, Options{})
	if stats.Executed != 1 || len(ids) != 1 {
		t.Fatalf("stale-hash cell did not re-run exactly once: %+v (%v)", stats, ids)
	}
}

// TestEnableTraceOnFinishedCampaign pins the per-round record's resume
// rule: a finished synchronous cell whose rounds.csv is missing (an -out
// directory written before every cell kept one) re-runs, exactly those
// cells, and the others stay cached.
func TestEnableTraceOnFinishedCampaign(t *testing.T) {
	dir := t.TempDir()
	c, base := loadExample(t)
	if _, err := Run(c, Options{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	cells, err := c.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, cell := range cells {
		if cell.Spec.Algo == "saps" {
			removed++
			if err := os.Remove(filepath.Join(cellDir(dir, cell.ID), cellRounds)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := Run(c, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		if _, err := os.Stat(filepath.Join(cellDir(dir, cell.ID), cellRounds)); err != nil {
			t.Errorf("cell %s: no rounds.csv after the resume: %v", cell.ID, err)
		}
	}
	if removed == 0 || stats.Executed != removed || stats.Skipped != stats.Planned-removed {
		t.Fatalf("the resume re-ran %d of %d cells, want the %d without rounds.csv", stats.Executed, stats.Planned, removed)
	}
}

// TestTraceArtifacts verifies the per-cell rounds.csv files: every cell of
// the example campaign, each of a synchronous algorithm, gets one with a
// header and a line per round.
func TestTraceArtifacts(t *testing.T) {
	dir := t.TempDir()
	runExample(t, dir, Options{})
	c, base := loadExample(t)
	cells, err := c.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		data, err := os.ReadFile(filepath.Join(cellDir(dir, cell.ID), cellRounds))
		if err != nil {
			t.Errorf("cell %s: %v", cell.ID, err)
			continue
		}
		if lines := strings.Count(string(data), "\n"); lines != cell.Spec.Rounds+1 {
			t.Errorf("cell %s rounds.csv has %d lines, want %d rounds + header", cell.ID, lines, cell.Spec.Rounds)
		}
	}
}
