// Directory-base campaign tests: a campaign whose base is a directory of
// scenario specs is what the deleted cmd/fleetbench sweeper did, so its
// results are pinned to what that sweeper produced at its last commit
// (testdata/fleetbench.golden), and the scenario names that now become
// output paths are checked before anything is written.
package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/scenario"
)

// fleetbenchLine is one run of the golden: the shard count fleetbench was
// asked for and the deterministic totals it reported.
type fleetbenchLine struct {
	shards        int
	bytes         int64
	simBits, loss uint64
}

// readFleetbenchGolden parses testdata/fleetbench.golden into its runs per
// "<sweep>/<scenario name>".
func readFleetbenchGolden(t *testing.T) map[string][]fleetbenchLine {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "fleetbench.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string][]fleetbenchLine{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		var key string
		var l fleetbenchLine
		if _, err := fmt.Sscanf(sc.Text(), "%s shards=%d bytes=%d sim=%x loss=%x", &key, &l.shards, &l.bytes, &l.simBits, &l.loss); err != nil {
			t.Fatalf("fleetbench.golden: %q: %v", sc.Text(), err)
		}
		golden[key] = append(golden[key], l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestFleetbenchGolden is the cross-commit oracle for the deleted sweeper:
// the two campaigns that replaced its two sweeps must put, in
// aggregate.json, the bytes, simulated-clock bits and loss bits fleetbench
// itself reported for every (scenario, shard count) — an async scenario's
// one cell standing for each of fleetbench's identical per-shard repeats —
// and the cells of one base that differ only in their shard count must agree
// with each other to the bit (what fleetbench's header promised and never
// checked).
func TestFleetbenchGolden(t *testing.T) {
	golden := readFleetbenchGolden(t)
	scenarios, err := Load(filepath.Join("testdata", "scenarios.json"))
	if err != nil {
		t.Fatal(err)
	}
	ablations, err := Load(filepath.Join(paperDir, "ablations.json"))
	if err != nil {
		t.Fatal(err)
	}
	// fleetbench -rounds 2 -shards 1: the committed ablations run hundreds
	// of rounds.
	ablations.Grid.Rounds, ablations.Grid.Shards = []int{2}, []int{1}
	sweeps := []struct {
		key  string
		spec *Spec
		trim string // what follows the base name in a synchronous cell's ID, before the shard count
	}{
		{"scenarios", scenarios, "_sh"},
		{"ablations", ablations, "_r2_sh"},
	}
	checked := 0
	for _, sw := range sweeps {
		if sw.key == "ablations" && testing.Short() {
			// Four CNN cells at two rounds each: ~9 s, minutes under -race.
			continue
		}
		dir := t.TempDir()
		if _, err := Run(sw.spec, Options{OutDir: dir}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "aggregate.json"))
		if err != nil {
			t.Fatal(err)
		}
		var agg AggregateFile
		if err := json.Unmarshal(data, &agg); err != nil {
			t.Fatal(err)
		}
		first := map[string]AggregateRow{} // base name → its first cell
		for _, row := range agg.Cells {
			name, _, sync := strings.Cut(row.Cell, sw.trim)
			if sync != !(algos.Recipe{Algo: row.Algo}).Async() {
				t.Errorf("%s: cell %s (algo %s): shard suffix on an async cell or none on a synchronous one", sw.key, row.Cell, row.Algo)
			}
			got := fleetbenchLine{row.Shards, row.TotalBytes, math.Float64bits(row.SimSeconds), math.Float64bits(row.FinalLoss)}
			matched := 0
			for _, want := range golden[sw.key+"/"+name] {
				if !sync {
					got.shards = want.shards
				}
				if want.shards != got.shards {
					continue
				}
				matched++
				checked++
				if got != want {
					t.Errorf("%s: cell %s: bytes %d sim %016x loss %016x, fleetbench reported %d / %016x / %016x",
						sw.key, row.Cell, got.bytes, got.simBits, got.loss, want.bytes, want.simBits, want.loss)
				}
			}
			if matched == 0 {
				t.Errorf("%s: cell %s matches no fleetbench.golden line", sw.key, row.Cell)
			}
			if f, seen := first[name]; !seen {
				first[name] = row
			} else if f.TotalBytes != row.TotalBytes ||
				math.Float64bits(f.SimSeconds) != math.Float64bits(row.SimSeconds) ||
				math.Float64bits(f.FinalLoss) != math.Float64bits(row.FinalLoss) {
				t.Errorf("%s: cells %s and %s differ only in shard count and disagree", sw.key, f.Cell, row.Cell)
			}
		}
	}
	want := 0
	for key, lines := range golden {
		if !testing.Short() || strings.HasPrefix(key, "scenarios/") {
			want += len(lines)
		}
	}
	if checked != want {
		t.Errorf("checked %d fleetbench.golden lines of %d", checked, want)
	}
}

// writeSpecs writes one scenario spec per (file, scenario name) pair into a
// fresh directory — copies of the committed tiny base — and returns a
// campaign, beside it, over the directory.
func writeSpecs(t *testing.T, named map[string]string) *Spec {
	t.Helper()
	base, err := scenario.Load(filepath.Join("testdata", "tiny-base.json"))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "specs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for file, name := range named {
		s := base.Clone()
		s.Name = name
		canon, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "specs", file), canon, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Parse([]byte(`{"schema_version": 1, "name": "dir", "base": "specs", "grid": {}}`), root)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDirectoryBaseNamesAreChecked: under a directory base a scenario's
// name — a field of an input file — starts its cells' IDs and so names their
// run directories, cells/<id>/. A name that is not filename-safe, or
// that two files of the directory share, is an error naming the file(s),
// raised before the output directory is touched.
func TestDirectoryBaseNamesAreChecked(t *testing.T) {
	cases := []struct {
		name  string
		specs map[string]string
		want  []string
	}{
		{"path escape", map[string]string{"a.json": "../x"}, []string{"a.json", `"../x"`, "not filename-safe"}},
		{"separator", map[string]string{"a.json": "ok", "b.json": "sub/dir"}, []string{"b.json", "not filename-safe"}},
		{"shared name", map[string]string{"a.json": "twin", "b.json": "twin"}, []string{"a.json", "b.json", `both named "twin"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := writeSpecs(t, tc.specs)
			out := filepath.Join(t.TempDir(), "out")
			_, err := Run(c, Options{OutDir: out})
			if err == nil {
				t.Fatal("campaign ran")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
			if _, err := os.Stat(out); err == nil {
				t.Error("the rejected campaign created its output directory")
			}
		})
	}
	// The same directory with safe, distinct names is a two-cell campaign
	// whose cells are named after the specs.
	c := writeSpecs(t, map[string]string{"a.json": "first", "b.json": "second"})
	out := t.TempDir()
	if st, err := Run(c, Options{OutDir: out}); err != nil || st.Executed != 2 {
		t.Fatalf("%+v, %v", st, err)
	}
	for _, id := range []string{"first", "second"} {
		for _, name := range []string{cellRecord, cellRounds} {
			if _, err := os.Stat(filepath.Join(cellDir(out, id), name)); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestAxisFreeFileBaseIsOneCell: a campaign with no axis over a single spec
// is that spec run once, as cell "base".
func TestAxisFreeFileBaseIsOneCell(t *testing.T) {
	c, err := Parse([]byte(`{"schema_version": 1, "name": "one", "base": "tiny-base.json", "grid": {}}`), "testdata")
	if err != nil {
		t.Fatal(err)
	}
	bases, err := c.LoadBase()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := c.Expand(bases...)
	if err != nil || len(cells) != 1 || cells[0].ID != "base" {
		t.Fatalf("cells %+v, %v", cells, err)
	}
}

// TestFailedCellLeavesNoTrace: a cell writes its run directory under a temp
// name, its rounds.csv streaming into it while the cell runs, so a cell that
// fails after rounds.csv is opened (here: its fleet trace does not exist,
// which the build discovers) must leave neither cells/<id>/ nor the temp
// directory behind: the output directory holds the journal and an empty
// cells/, and nothing else.
func TestFailedCellLeavesNoTrace(t *testing.T) {
	base, err := scenario.Load(filepath.Join("testdata", "tiny-base.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := variantCampaign(t, base, "doomed", Grid{}, func(s *scenario.Spec) {
		s.Trace = &scenario.TraceSpec{File: "no-such-trace.csv"}
	})
	out := t.TempDir()
	if _, err := Run(c, Options{OutDir: out}); err == nil || !strings.Contains(err.Error(), "no-such-trace.csv") {
		t.Fatalf("campaign over a missing fleet trace: %v", err)
	}
	for _, dir := range []string{"", "cells"} {
		entries, err := os.ReadDir(filepath.Join(out, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if dir == "" && (e.Name() == "cells" || e.Name() == ManifestName) {
				continue
			}
			t.Errorf("failed cell left %s behind", filepath.Join(dir, e.Name()))
		}
	}
}
