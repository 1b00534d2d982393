// Trace- and partition-axis campaign tests: the committed edge-fleet
// campaign ("a day in the life of an edge fleet") is both the expansion
// fixture and the end-to-end subject whose aggregates must separate
// SAPS-PSGD from the dense baselines under replayed churn.
package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapspsgd/internal/scenario"
)

// loadEdgeFleet loads the committed edge-fleet campaign and its base.
func loadEdgeFleet(t *testing.T) (*Spec, *scenario.Spec) {
	t.Helper()
	c, err := Load(filepath.Join("testdata", "edge-fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	bases, err := c.LoadBase()
	if err != nil {
		t.Fatal(err)
	}
	return c, bases[0]
}

// TestTraceAndPartitionAxesExpand pins the new axes' expansion semantics on
// the committed edge-fleet campaign: the run matrix crosses algo × trace ×
// partition in the fixed order, membership events survive only on saps
// cells, the static entry clears the trace block, the iid entry clears the
// partition block, and every referenced trace file exists on disk.
func TestTraceAndPartitionAxesExpand(t *testing.T) {
	c, base := loadEdgeFleet(t)
	cells, err := c.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, cell := range cells {
		ids = append(ids, cell.ID)
	}
	want := []string{
		"saps_edge_noniid_c25", "saps_edge_iid_c25", "saps_static_noniid_c25", "saps_static_iid_c25",
		"psgd_edge_noniid", "psgd_edge_iid", "psgd_static_noniid", "psgd_static_iid",
		"topk-psgd_edge_noniid_c25", "topk-psgd_edge_iid_c25", "topk-psgd_static_noniid_c25", "topk-psgd_static_iid_c25",
	}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("cells %v, want %v", ids, want)
	}
	for _, cell := range cells {
		s := cell.Spec
		switch cell.Trace {
		case "edge":
			if s.Trace == nil {
				t.Fatalf("cell %s lost its trace block", cell.ID)
			}
			if got, want := s.Trace.Events, s.Algo == "saps"; got != want {
				t.Errorf("cell %s (algo %s): trace events %v, want %v", cell.ID, s.Algo, got, want)
			}
			if _, err := os.Stat(s.TracePath()); err != nil {
				t.Errorf("cell %s: trace file unresolvable: %v", cell.ID, err)
			}
		case "static":
			if s.Trace != nil {
				t.Errorf("cell %s: static entry kept a trace block", cell.ID)
			}
		default:
			t.Errorf("cell %s: unexpected trace label %q", cell.ID, cell.Trace)
		}
		switch cell.Partition {
		case "noniid":
			if s.Partition == nil || s.Partition.Kind != "dirichlet" {
				t.Errorf("cell %s: partition block %+v, want dirichlet", cell.ID, s.Partition)
			}
		case "iid":
			if s.Partition != nil {
				t.Errorf("cell %s: iid entry kept a partition block", cell.ID)
			}
		default:
			t.Errorf("cell %s: unexpected partition label %q", cell.ID, cell.Partition)
		}
	}
}

// TestTraceAxisCollapsesForAsync pins the async interaction: asynchronous
// cells run on a static bandwidth environment, so the trace axis collapses
// for them exactly like the shards axis (one cell, no trace block, no ID
// part) while synchronous cells still sweep it.
func TestTraceAxisCollapsesForAsync(t *testing.T) {
	c := &Spec{
		SchemaVersion: SpecSchemaVersion,
		Name:          "mixed-traced",
		Base:          "testdata/async-base.json",
		Grid: Grid{
			Algo:        []string{"saps", "adpsgd"},
			Compression: []float64{50},
			Traces: []GridTrace{
				{TraceSpec: scenario.TraceSpec{File: filepath.Join("..", "..", "scenario", "testdata", "traces", "cloud.csv")}},
				{Name: "static"},
			},
		},
	}
	cells, err := c.Expand(loadAsyncBase(t))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, cell := range cells {
		ids = append(ids, cell.ID)
	}
	want := []string{"saps_cloud_c50", "saps_static_c50", "adpsgd"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("cells %v, want %v", ids, want)
	}
	if cells[0].Spec.Trace == nil || cells[1].Spec.Trace != nil {
		t.Errorf("sync cells: trace blocks %v / %v, want present / absent", cells[0].Spec.Trace, cells[1].Spec.Trace)
	}
	if cells[2].Spec.Trace != nil || cells[2].Trace != "" {
		t.Errorf("async cell kept a trace: block %v, label %q", cells[2].Spec.Trace, cells[2].Trace)
	}
}

// TestEdgeFleetCampaignRuns is the tentpole's figure-level acceptance: the
// committed campaign runs end to end, its aggregate rows carry the trace and
// partition labels, and under the replayed edge-fleet day SAPS-PSGD moves an
// order less traffic than the dense baseline while the sparsified baseline
// sits in between — the loss-vs-traffic separation the campaign exists to
// show. A second invocation must be a no-op resume.
func TestEdgeFleetCampaignRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full edge-fleet campaign")
	}
	c, _ := loadEdgeFleet(t)
	dir := t.TempDir()
	stats, err := Run(c, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Planned != 12 || stats.Executed != 12 || !stats.Aggregated {
		t.Fatalf("edge-fleet campaign: %+v", stats)
	}

	data, err := os.ReadFile(filepath.Join(dir, "aggregate.json"))
	if err != nil {
		t.Fatal(err)
	}
	var agg AggregateFile
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	rows := map[string]AggregateRow{}
	for _, r := range agg.Cells {
		rows[r.Cell] = r
		if r.FleetTrace == "" || r.Partition == "" {
			t.Errorf("row %s missing axis labels: trace %q partition %q", r.Cell, r.FleetTrace, r.Partition)
		}
	}
	saps, topk, psgd := rows["saps_edge_noniid_c25"], rows["topk-psgd_edge_noniid_c25"], rows["psgd_edge_noniid"]
	if !(saps.TotalBytes < topk.TotalBytes && topk.TotalBytes < psgd.TotalBytes) {
		t.Errorf("traffic under churn not separated: saps %d, topk %d, psgd %d bytes",
			saps.TotalBytes, topk.TotalBytes, psgd.TotalBytes)
	}
	if psgd.TotalBytes < 8*saps.TotalBytes {
		t.Errorf("saps moved %d bytes vs psgd's %d — expected ~an order of magnitude apart", saps.TotalBytes, psgd.TotalBytes)
	}
	// The replayed day reshapes the link environment: simulated time under
	// the edge trace must differ from the static control's.
	static := rows["saps_static_noniid_c25"]
	if saps.SimSeconds == static.SimSeconds {
		t.Errorf("edge trace left simulated time at the static value (%v)", saps.SimSeconds)
	}

	again, err := Run(c, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Skipped != 12 {
		t.Fatalf("re-run was not a no-op resume: %+v", again)
	}
}
