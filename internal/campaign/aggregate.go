package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
)

// AggregateSchemaVersion is the aggregate.json schema.
const AggregateSchemaVersion = 1

// AggregateRow is one cell's summary inside aggregate.json (the per-round
// series stay in the cell files; the row carries the figure-level totals).
type AggregateRow struct {
	// Cell is the run-matrix cell ID.
	Cell string `json:"cell"`
	CellSummary
}

// AggregateFile is aggregate.json: the campaign's deterministic cell
// summary in run-matrix order.
type AggregateFile struct {
	// SchemaVersion must equal AggregateSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Campaign is the campaign name.
	Campaign string `json:"campaign"`
	// Cells lists every cell in run-matrix order.
	Cells []AggregateRow `json:"cells"`
}

// readCellResult loads and sanity-checks one persisted cell record.
func readCellResult(outDir string, cell Cell) (*CellResult, error) {
	data, err := os.ReadFile(filepath.Join(cellDir(outDir, cell.ID), cellRecord))
	if err != nil {
		return nil, err
	}
	var res CellResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", cell.ID, err)
	}
	if res.SchemaVersion != CellResultSchemaVersion {
		return nil, fmt.Errorf("campaign: cell %s: result schema_version %d, want %d", cell.ID, res.SchemaVersion, CellResultSchemaVersion)
	}
	if res.SpecSHA != cell.SHA {
		return nil, fmt.Errorf("campaign: cell %s: result from spec %s, current spec is %s (stale output directory?)",
			cell.ID, res.SpecSHA, cell.SHA)
	}
	return &res, nil
}

// Aggregate reads every cell's persisted result and writes the campaign's
// figure artifacts into outDir:
//
//   - aggregate.json — per-cell totals in run-matrix order;
//   - summary.md / summary.csv — the same rows as a table;
//   - traffic_by_algo.md / traffic_by_algo.csv — per-algorithm cell counts
//     and mean traffic/loss (the paper's per-algo traffic comparison);
//   - loss_vs_round.csv — one loss column per cell, one row per round;
//   - loss_vs_bytes.csv — per cell and round, cumulative traffic (MB)
//     against loss (the convergence-vs-traffic figure's underlying data);
//   - when cells evaluated a validation split: accuracy_vs_epoch.csv,
//     accuracy_vs_traffic.csv, accuracy_vs_sim_seconds.csv (Figs 3/4/6),
//     final_accuracy.{md,csv} (Table III) and, with target_acc set,
//     time_to_target.{md,csv} (Table IV);
//   - when the campaign has planner-only cells:
//     matched_bandwidth_vs_round.csv and matched_bandwidth.{md,csv} with
//     the static ring's constant (Fig. 5).
//
// All inputs and outputs are deterministic: repeat runs of the same
// campaign — interrupted or not — produce byte-identical artifacts.
func Aggregate(c *Spec, cells []Cell, outDir string) error {
	agg := &AggregateFile{SchemaVersion: AggregateSchemaVersion, Campaign: c.Name}
	results := make([]*CellResult, 0, len(cells))
	for _, cell := range cells {
		res, err := readCellResult(outDir, cell)
		if err != nil {
			return err
		}
		results = append(results, res)
		agg.Cells = append(agg.Cells, AggregateRow{Cell: res.Cell, CellSummary: res.CellSummary})
	}
	data, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		return err
	}
	if err := engine.CommitFile(filepath.Join(outDir, "aggregate.json"), append(data, '\n')); err != nil {
		return err
	}

	summary := newTable("Campaign "+c.Name,
		"cell", "algo", "nodes", "rounds", "bandwidth", "trace", "partition",
		"compression", "seed", "shards", "total", "sim_s", "final_loss")
	for _, r := range results {
		comp := ""
		if r.Compression > 0 {
			comp = compact(r.Compression)
		}
		summary.add(r.Cell, r.Algo, strconv.Itoa(r.Nodes), strconv.Itoa(r.Rounds),
			r.Bandwidth, r.FleetTrace, r.Partition, comp,
			strconv.FormatUint(r.Seed, 10), strconv.Itoa(r.Shards),
			fmtMB(r.TotalBytes), fmtF(r.SimSeconds), fmtF(r.FinalLoss))
	}
	if err := writeTable(outDir, "summary", summary); err != nil {
		return err
	}

	byAlgo := newTable("Traffic by algorithm",
		"algo", "cells", "mean_total_mb", "mean_sim_s", "mean_final_loss")
	type acc struct {
		cells     int
		bytes     int64
		sim, loss float64
	}
	accs := map[string]*acc{}
	var order []string
	for _, r := range results {
		a, ok := accs[r.Algo]
		if !ok {
			a = &acc{}
			accs[r.Algo] = a
			order = append(order, r.Algo)
		}
		a.cells++
		a.bytes += r.TotalBytes
		a.sim += r.SimSeconds
		a.loss += r.FinalLoss
	}
	for _, algo := range order {
		a := accs[algo]
		n := float64(a.cells)
		byAlgo.add(algo, strconv.Itoa(a.cells),
			fmtF(float64(a.bytes)/n/1e6), fmtF(a.sim/n), fmtF(a.loss/n))
	}
	if err := writeTable(outDir, "traffic_by_algo", byAlgo); err != nil {
		return err
	}

	names := make([]string, len(results))
	series := map[string][]float64{}
	for i, r := range results {
		names[i] = r.Cell
		series[r.Cell] = r.Losses
	}
	var buf bytes.Buffer
	writeSeries(&buf, names, series)
	if err := engine.CommitFile(filepath.Join(outDir, "loss_vs_round.csv"), buf.Bytes()); err != nil {
		return err
	}

	lvb := newTable("", "cell", "round", "cum_mb", "loss")
	for _, r := range results {
		for round := range r.Losses {
			mb := 0.0
			if round < len(r.CumBytes) {
				mb = float64(r.CumBytes[round]) / 1e6
			}
			lvb.add(r.Cell, strconv.Itoa(round), fmtF(mb), fmtF(r.Losses[round]))
		}
	}
	if err := writeCSV(outDir, "loss_vs_bytes", lvb); err != nil {
		return err
	}
	if err := writeAccuracy(c, cells, results, outDir); err != nil {
		return err
	}
	return writeMatchedBandwidth(cells, results, outDir)
}

// writeAccuracy renders the validation-accuracy artifacts of the cells that
// evaluated a held-out split: accuracy against epoch, per-worker traffic
// and simulated time (Figs 3/4/6), the final-accuracy table (Table III)
// and, with target_acc set, the time-to-target table (Table IV). A campaign
// without such cells writes nothing.
func writeAccuracy(c *Spec, cells []Cell, results []*CellResult, outDir string) error {
	epoch := newTable("", "cell", "round", "epoch", "accuracy")
	traffic := newTable("", "cell", "traffic_mb", "accuracy")
	simTime := newTable("", "cell", "sim_seconds", "accuracy")
	final := newTable("Final top-1 validation accuracy",
		"cell", "algo", "accuracy", "val_loss", "traffic_mb", "sim_s")
	target := newTable("Traffic and time to reach "+fmtPct(c.TargetAcc)+" validation accuracy",
		"cell", "algo", "traffic_mb", "sim_s", "reached")
	for i, r := range results {
		if len(r.Evals) == 0 {
			continue
		}
		// One epoch is a pass of every worker over its shard: samples /
		// nodes / batch rounds (at least one).
		s := cells[i].Spec
		roundsPerEpoch := float64(max(1, s.Data.Samples/s.Nodes/s.Batch))
		for _, e := range r.Evals {
			epoch.add(r.Cell, strconv.Itoa(e.Round), fmtF(float64(e.Round)/roundsPerEpoch), fmtF(e.ValAcc))
			traffic.add(r.Cell, fmtF(e.TrafficMB), fmtF(e.ValAcc))
			simTime.add(r.Cell, fmtF(e.TimeSec), fmtF(e.ValAcc))
		}
		f := r.Evals.Final()
		final.add(r.Cell, r.Algo, fmtPct(f.ValAcc), fmtF(f.ValLoss), fmtF(f.TrafficMB), fmtF(f.TimeSec))
		if e, ok := r.Evals.FirstReaching(c.TargetAcc); ok {
			target.add(r.Cell, r.Algo, fmtF(e.TrafficMB), fmtF(e.TimeSec), "yes")
		} else {
			target.add(r.Cell, r.Algo, fmtF(f.TrafficMB), fmtF(f.TimeSec), "no ("+fmtPct(f.ValAcc)+")")
		}
	}
	if len(final.Rows) == 0 {
		return nil
	}
	err := errors.Join(
		writeCSV(outDir, "accuracy_vs_epoch", epoch),
		writeCSV(outDir, "accuracy_vs_traffic", traffic),
		writeCSV(outDir, "accuracy_vs_sim_seconds", simTime),
		writeTable(outDir, "final_accuracy", final))
	if err == nil && c.TargetAcc > 0 {
		err = writeTable(outDir, "time_to_target", target)
	}
	return err
}

// ringSamples is the number of independently drawn bandwidth matrices the
// paper averages the static ring over in its random environments (Fig. 5b).
const ringSamples = 5000

// ringMBps is the mean link bandwidth of the static ring 0→1→…→n-1→0 that
// D-PSGD and DCD-PSGD gossip over — Fig. 5's constant series. In a uniform
// random environment no ring is special, so, like the paper, it is averaged
// over ringSamples matrices drawn from the same distribution; measured or
// structured environments use their own ring.
func ringMBps(s *scenario.Spec) float64 {
	if s.Bandwidth.Kind != "uniform" {
		return gossip.RingMeanBandwidth(s.Env())
	}
	r := rng.New(s.Seed).Derive(0x5000)
	total := 0.0
	for i := 0; i < ringSamples; i++ {
		env := netsim.RandomUniform(s.Nodes, s.Bandwidth.Lo, s.Bandwidth.Hi, r.Derive(uint64(i)))
		total += gossip.RingMeanBandwidth(env)
	}
	return total / ringSamples
}

// writeMatchedBandwidth renders Fig. 5 from the planner-only cells: the
// per-round mean matched bandwidth of every such cell, and a table of their
// means beside the static ring's constant. A campaign without such cells
// writes nothing.
func writeMatchedBandwidth(cells []Cell, results []*CellResult, outDir string) error {
	var names []string
	series := map[string][]float64{}
	t := newTable("Mean matched link bandwidth (MB/s)", "cell", "algo", "matched_mbps", "ring_mbps")
	for i, r := range results {
		if len(r.MatchedMBps) == 0 {
			continue
		}
		names = append(names, r.Cell)
		series[r.Cell] = r.MatchedMBps
		sum := 0.0
		for _, v := range r.MatchedMBps {
			sum += v
		}
		t.add(r.Cell, r.Algo, fmtF(sum/float64(len(r.MatchedMBps))), fmtF(ringMBps(cells[i].Spec)))
	}
	if len(names) == 0 {
		return nil
	}
	var buf bytes.Buffer
	writeSeries(&buf, names, series)
	if err := engine.CommitFile(filepath.Join(outDir, "matched_bandwidth_vs_round.csv"), buf.Bytes()); err != nil {
		return err
	}
	return writeTable(outDir, "matched_bandwidth", t)
}

// writeTable writes a table as both <name>.md and <name>.csv.
func writeTable(outDir, name string, t *table) error {
	var buf bytes.Buffer
	t.writeMarkdown(&buf)
	if err := engine.CommitFile(filepath.Join(outDir, name+".md"), buf.Bytes()); err != nil {
		return err
	}
	return writeCSV(outDir, name, t)
}

// writeCSV writes a table as <name>.csv.
func writeCSV(outDir, name string, t *table) error {
	var buf bytes.Buffer
	t.writeCSV(&buf)
	return engine.CommitFile(filepath.Join(outDir, name+".csv"), buf.Bytes())
}
