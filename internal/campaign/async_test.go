package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapspsgd/internal/nn"
	"sapspsgd/internal/scenario"
)

// loadAsyncBase loads the committed asynchronous base scenario.
func loadAsyncBase(t *testing.T) *scenario.Spec {
	t.Helper()
	base, err := scenario.Load(filepath.Join("testdata", "async-base.json"))
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestAsyncAlgoAxisExpands pins the sync-vs-async grid axis: a mixed
// algorithm sweep over an async base yields synchronous cells with the
// async block dropped, asynchronous cells with it kept, and a shards axis
// that collapses for async cells (and only for them).
func TestAsyncAlgoAxisExpands(t *testing.T) {
	c := &Spec{
		SchemaVersion: SpecSchemaVersion,
		Name:          "mixed",
		Base:          "testdata/async-base.json",
		Grid: Grid{
			Algo:        []string{"saps", "psgd", "adpsgd", "gradpush"},
			Compression: []float64{100},
			Shards:      []int{1, 2},
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
	want := []string{"saps_sh1_c100", "saps_sh2_c100", "psgd_sh1", "psgd_sh2", "adpsgd", "gradpush"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("cells %v, want %v", ids, want)
	}
	for _, cell := range cells {
		async := cell.Spec.Recipe().Async()
		if async != (cell.Spec.Async != nil) {
			t.Fatalf("cell %s: async block presence does not match algo %s", cell.ID, cell.Spec.Algo)
		}
		if async && cell.Spec.Shards != 0 {
			t.Fatalf("async cell %s carries %d shards", cell.ID, cell.Spec.Shards)
		}
		if err := cell.Spec.Validate(); err != nil {
			t.Fatalf("cell %s does not validate: %v", cell.ID, err)
		}
	}
}

// TestAsyncCampaignRuns executes a small sync-vs-async campaign end to end:
// every cell (one synchronous, two asynchronous) runs through the shared
// runner, persists a series-bearing cell record, and aggregates. Each
// asynchronous cell's directory carries its determinism artifacts — the
// event log of its run, every rank's final model words — and its record the
// per-rank ledgers; the synchronous cell's carries none of them, and only it
// has a rounds.csv.
func TestAsyncCampaignRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (if tiny) campaign")
	}
	c := &Spec{
		SchemaVersion: SpecSchemaVersion,
		Name:          "mixed-run",
		Base:          "testdata/async-base.json",
		Grid:          Grid{Algo: []string{"psgd", "adpsgd", "gradpush"}},
	}
	dir := t.TempDir()
	stats, err := Run(c, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Planned != 3 || stats.Executed != 3 || !stats.Aggregated {
		t.Fatalf("campaign stats %+v", stats)
	}
	sameFileModes(t, dir)
	cells, err := c.Expand(loadAsyncBase(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		id, cdir := cell.ID, cellDir(dir, cell.ID)
		data, err := os.ReadFile(filepath.Join(cdir, cellRecord))
		if err != nil {
			t.Fatal(err)
		}
		var rec CellResult
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.TotalBytes <= 0 || len(rec.Losses) == 0 || len(rec.Losses) != len(rec.CumBytes) {
			t.Fatalf("cell %s: degenerate record %+v", id, rec)
		}
		if rec.SimSeconds <= 0 {
			t.Fatalf("cell %s: no simulated time", id)
		}
		if cell.Spec.Async == nil {
			for _, name := range []string{cellEvents, cellEventsCSV, cellModel} {
				if _, err := os.Stat(filepath.Join(cdir, name)); err == nil {
					t.Errorf("synchronous cell %s wrote %s", id, name)
				}
			}
			if rec.SentBytes != nil || rec.RecvBytes != nil {
				t.Errorf("synchronous cell %s recorded per-rank ledgers", id)
			}
			if _, err := os.Stat(filepath.Join(cdir, cellRounds)); err != nil {
				t.Errorf("synchronous cell %s: %v", id, err)
			}
			continue
		}
		if _, err := os.Stat(filepath.Join(cdir, cellRounds)); err == nil {
			t.Errorf("asynchronous cell %s wrote %s", id, cellRounds)
		}
		nodes := cell.Spec.Nodes
		if len(rec.SentBytes) != nodes || len(rec.RecvBytes) != nodes {
			t.Errorf("cell %s: %d sent / %d received ledgers for %d ranks", id, len(rec.SentBytes), len(rec.RecvBytes), nodes)
		}
		want, err := cell.Spec.RunFull(scenario.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		events, err := os.ReadFile(filepath.Join(cdir, cellEvents))
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 || !bytes.Equal(events, want.Events.Bytes()) {
			t.Errorf("cell %s: %s is not the event log of its spec's run", id, cellEvents)
		}
		if csv, err := os.Stat(filepath.Join(cdir, cellEventsCSV)); err != nil || csv.Size() == 0 {
			t.Errorf("cell %s: %s: %v", id, cellEventsCSV, err)
		}
		model, err := os.ReadFile(filepath.Join(cdir, cellModel))
		if err != nil {
			t.Fatal(err)
		}
		params := nn.MLPParamCount(8*8, cell.Spec.Model.Hidden, cell.Spec.Data.Classes) // the tiny task's 1×8×8 inputs
		if len(model) != nodes*params*8 {
			t.Errorf("cell %s: %s holds %d bytes, want %d ranks × %d parameters × 8", id, cellModel, len(model), nodes, params)
		}
	}

	// A journaled asynchronous cell that lost one artifact — a rename a
	// power loss undid — runs again, and only it.
	if err := os.Remove(filepath.Join(cellDir(dir, "gradpush"), cellEventsCSV)); err != nil {
		t.Fatal(err)
	}
	if stats, err = Run(c, Options{OutDir: dir}); err != nil || stats.Executed != 1 || stats.Skipped != 2 {
		t.Fatalf("after losing gradpush's %s the re-run gave %+v, %v; want it alone executed", cellEventsCSV, stats, err)
	}
}
