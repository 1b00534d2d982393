package campaign

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/scenario"
)

// roundColumns is the header every rounds.csv starts with.
var roundColumns = []string{"round", "active", "pairs", "forced", "mean_pair_mbps", "payload_words", "bytes", "sim_seconds", "loss"}

// readRounds parses a cell's rounds.csv: its header must be roundColumns,
// and each row is returned as its fields, in round order.
func readRounds(t *testing.T, outDir string, cell Cell) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join(cellDir(outDir, cell.ID), cellRounds))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("cell %s: %v", cell.ID, err)
	}
	if len(recs) == 0 || !slices.Equal(recs[0], roundColumns) {
		t.Fatalf("cell %s: rounds.csv header %v, want %v", cell.ID, recs[:min(1, len(recs))], roundColumns)
	}
	return recs[1:]
}

// TestRoundRowsAgreeWithCellRecord: a synchronous cell's rounds.csv is an
// exact record of its run. Parsed back, its rows give the cell record's
// series bit for bit: loss is losses; twice the running sum of bytes is
// cum_bytes, because the ledger counts each payload at its sender and its
// receiver; the running sum of sim_seconds is cum_sim_seconds; and a
// planner-only cell's mean_pair_mbps is matched_mbps. Every synchronous
// recipe runs on a small training spec, and the SAPS family once more
// planner-only.
func TestRoundRowsAgreeWithCellRecord(t *testing.T) {
	base, err := scenario.Load(filepath.Join("testdata", "tiny-base.json"))
	if err != nil {
		t.Fatal(err)
	}
	sync := algos.Names(func(r algos.Recipe) bool { return !r.Async() })
	pairwise := algos.Names(algos.Recipe.Pairwise)
	campaigns := []*Spec{
		variantCampaign(t, base, "rows", Grid{Algo: sync}, func(s *scenario.Spec) {
			s.C, s.Levels, s.Fraction = 8, 4, 0.5
		}),
		variantCampaign(t, base, "rows-planner", Grid{Algo: pairwise}, func(s *scenario.Spec) {
			s.PlannerOnly = true
		}),
	}
	for _, c := range campaigns {
		cells, results, out := runCells(t, c)
		if len(cells) != len(c.Grid.Algo) {
			t.Fatalf("campaign %s: %d cells, want one per algorithm of %v", c.Name, len(cells), c.Grid.Algo)
		}
		for i, cell := range cells {
			rec, rows := results[i], readRounds(t, out, cell)
			if len(rows) != cell.Spec.Rounds || len(rec.Losses) != cell.Spec.Rounds {
				t.Fatalf("cell %s: %d rows and %d losses for %d rounds", cell.ID, len(rows), len(rec.Losses), cell.Spec.Rounds)
			}
			if got := cell.Spec.PlannerOnly; got != (len(rec.MatchedMBps) > 0) {
				t.Errorf("cell %s: planner_only %v but matched_mbps %v", cell.ID, got, rec.MatchedMBps)
			}
			var bytes int64
			var sim float64
			for r, row := range rows {
				field := func(col string) string { return row[slices.Index(roundColumns, col)] }
				num := func(col string) float64 {
					v, err := strconv.ParseFloat(field(col), 64)
					if err != nil {
						t.Fatalf("cell %s round %d: %s: %v", cell.ID, r, col, err)
					}
					return v
				}
				if field("round") != strconv.Itoa(r) {
					t.Fatalf("cell %s: row %d is round %s", cell.ID, r, field("round"))
				}
				n, err := strconv.ParseInt(field("bytes"), 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				bytes += n
				sim += num("sim_seconds")
				if l := num("loss"); math.Float64bits(l) != math.Float64bits(rec.Losses[r]) {
					t.Errorf("cell %s round %d: loss %s, losses %v", cell.ID, r, field("loss"), rec.Losses[r])
				}
				if 2*bytes != rec.CumBytes[r] {
					t.Errorf("cell %s round %d: 2 × %d bytes so far, cum_bytes %d", cell.ID, r, bytes, rec.CumBytes[r])
				}
				if math.Float64bits(sim) != math.Float64bits(rec.CumSimSeconds[r]) {
					t.Errorf("cell %s round %d: %v sim seconds so far, cum_sim_seconds %v", cell.ID, r, sim, rec.CumSimSeconds[r])
				}
				if cell.Spec.PlannerOnly && math.Float64bits(num("mean_pair_mbps")) != math.Float64bits(rec.MatchedMBps[r]) {
					t.Errorf("cell %s round %d: mean_pair_mbps %s, matched_mbps %v", cell.ID, r, field("mean_pair_mbps"), rec.MatchedMBps[r])
				}
				if pairs := field("pairs"); cell.Spec.Recipe().Pairwise() != (pairs != "") || strings.Count(pairs, "-") > cell.Spec.Nodes/2 {
					t.Errorf("cell %s round %d: pairs %q", cell.ID, r, pairs)
				}
			}
		}
	}
}
