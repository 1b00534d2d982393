package campaign

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var recordExpansion = flag.Bool("record-expansion", false, "rewrite testdata/expansion.golden from the committed campaigns")

// committedCampaigns lists every campaign file under campaigns/ (and its
// paper/ directory) and this package's testdata, sorted: the JSON files that
// carry a base, which no scenario spec does.
func committedCampaigns(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, dir := range []string{"../../campaigns", paperDir, "testdata"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			var probe struct {
				Base *string `json:"base"`
			}
			if err := json.Unmarshal(data, &probe); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if probe.Base != nil {
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestExpansionGolden pins every committed campaign's run matrix across
// commits: each cell's ID and the SHA of its canonical spec, in matrix
// order. A resumed campaign re-runs every cell whose SHA moved, so a
// refactor of Expand or of the scenario layer must leave this file as it is;
// -record-expansion goes only with a deliberate change to a committed
// campaign or to what a cell's spec holds.
func TestExpansionGolden(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# Recorded by TestExpansionGolden -record-expansion; see expansion_golden_test.go.\n")
	sb.WriteString("# One cell per line: the campaign file, the cell ID and the SHA of its canonical spec.\n")
	for _, path := range committedCampaigns(t) {
		c, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		bases, err := c.LoadBase()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cells, err := c.Expand(bases...)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, "../../"))
		for _, cell := range cells {
			fmt.Fprintf(&sb, "%s %s %s\n", rel, cell.ID, cell.SHA)
		}
	}
	golden := filepath.Join("testdata", "expansion.golden")
	if *recordExpansion {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("expansion.golden line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
}
