package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

// CellResultSchemaVersion is the cells/<id>/cell.json schema.
const CellResultSchemaVersion = 1

// CellResult is one executed cell's persisted record
// (cells/<id>/cell.json). Every field is deterministic — a repeat run of the
// same campaign writes byte-identical files — so the aggregates derived
// from these records are reproducible too; wall timings live only in the
// manifest.
type CellResult struct {
	// SchemaVersion must equal CellResultSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Cell and SpecSHA key the record to the run matrix.
	Cell    string `json:"cell"`
	SpecSHA string `json:"spec_sha"`
	CellSummary
	// Losses, CumBytes and CumSimSeconds are the per-round convergence
	// series (loss vs round, loss vs cumulative traffic, and the
	// simulated-time axis for time-to-accuracy reads).
	Losses        []float64 `json:"losses"`
	CumBytes      []int64   `json:"cum_bytes"`
	CumSimSeconds []float64 `json:"cum_sim_seconds"`
	// Evals is the periodic validation series of a cell whose scenario
	// holds out a validation split (data.valid): the accuracy axis of
	// Figs 3/4/6 and Tables III/IV.
	Evals scenario.Evals `json:"evals,omitempty"`
	// MatchedMBps is the per-round mean bandwidth over the matched pairs of
	// a planner-only cell — Fig. 5's series (training cells keep theirs in
	// cells/<id>/rounds.csv).
	MatchedMBps []float64 `json:"matched_mbps,omitempty"`
	// SentBytes and RecvBytes are an asynchronous cell's per-rank byte
	// ledgers (absent from synchronous records).
	SentBytes []int64 `json:"sent_bytes,omitempty"`
	RecvBytes []int64 `json:"recv_bytes,omitempty"`
}

// CellSummary is a cell's labels and deterministic totals: what its
// cells/<id>/cell.json record and its aggregate.json row share.
type CellSummary struct {
	// Algo through Compression label the cell for aggregation (Bandwidth,
	// FleetTrace, Partition and Compression are the grid labels;
	// empty/zero when the axis is not swept).
	Algo        string  `json:"algo"`
	Nodes       int     `json:"nodes"`
	Rounds      int     `json:"rounds"`
	Seed        uint64  `json:"seed"`
	Shards      int     `json:"shards"`
	Bandwidth   string  `json:"bandwidth,omitempty"`
	FleetTrace  string  `json:"fleet_trace,omitempty"`
	Partition   string  `json:"partition,omitempty"`
	Compression float64 `json:"compression,omitempty"`
	// TotalBytes is the fleet's deterministic traffic total, FinalLoss the
	// last round's mean training loss, SimSeconds the simulated
	// communication time.
	TotalBytes int64   `json:"total_bytes"`
	FinalLoss  float64 `json:"final_loss"`
	SimSeconds float64 `json:"sim_seconds"`
}

// The files of a cell's run directory, cells/<id>/. Every cell writes its
// record, and a synchronous cell its per-round record (scenario's
// RunOptions.Rounds). An asynchronous cell instead writes its determinism
// artifacts: the virtual-time event log in its byte-exact text and its CSV
// form, and every rank's final parameters as little-endian float64 words,
// rank-major.
const (
	cellRecord    = "cell.json"
	cellRounds    = "rounds.csv"
	cellEvents    = "events.log"
	cellEventsCSV = "events.csv"
	cellModel     = "model.bin"
)

// cellDir is the cell's run directory under the campaign output directory.
func cellDir(outDir, id string) string {
	return filepath.Join(outDir, "cells", id)
}

// cellComplete reports whether the cell's run directory holds every file it
// writes; a journaled cell that lost one re-runs (DESIGN.md §3, §6).
func cellComplete(outDir string, cell Cell) bool {
	names := []string{cellRecord, cellRounds}
	if cell.Spec.Async != nil {
		names = []string{cellRecord, cellEvents, cellEventsCSV, cellModel}
	}
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(cellDir(outDir, cell.ID), name)); err != nil {
			return false
		}
	}
	return true
}

// Options tunes one campaign invocation (everything not declared in the
// spec itself).
type Options struct {
	// OutDir is the campaign's output directory: manifest.jsonl, one run
	// directory per cell under cells/, and the aggregate artifacts all live
	// under it. Created if missing; an existing manifest drives resume.
	OutDir string
	// Workers overrides the spec's concurrency bound (0 defers to the
	// spec, which defaults to GOMAXPROCS).
	Workers int
	// MaxCells, when positive, stops the invocation after executing that
	// many cells — the smoke-test and interruption-simulation hook. The
	// campaign is left resumable; aggregates are only written once every
	// cell is done.
	MaxCells int
	// Log receives progress lines (nil discards them).
	Log io.Writer
	// Observer, when set, is called once per actually executed cell (not
	// for skipped ones) — a test seam for resume accounting.
	Observer func(cellID string)
}

// Stats summarizes one Run invocation.
type Stats struct {
	// Planned is the full run-matrix size.
	Planned int
	// Skipped cells were already journaled (same ID and spec SHA, record
	// present) and did not re-run.
	Skipped int
	// Executed cells ran in this invocation.
	Executed int
	// Remaining cells are still pending (only non-zero under MaxCells or
	// after an error).
	Remaining int
	// Aggregated reports whether the aggregate artifacts were (re)written
	// — true exactly when Remaining is zero and no error occurred.
	Aggregated bool
}

// Run executes the campaign into opts.OutDir: expand the grid, skip the
// cells the manifest already records, run the rest across the worker pool,
// journal each completion, and — once every cell is done — write the
// aggregate artifacts. Safe to invoke repeatedly; each invocation does only
// the missing work.
func Run(c *Spec, opts Options) (Stats, error) {
	var st Stats
	if opts.OutDir == "" {
		return st, fmt.Errorf("campaign %s: no output directory", c.Name)
	}
	bases, err := c.LoadBase()
	if err != nil {
		return st, fmt.Errorf("campaign %s: base scenario: %w", c.Name, err)
	}
	cells, err := c.Expand(bases...)
	if err != nil {
		return st, err
	}
	st.Planned = len(cells)
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}
	if err := os.MkdirAll(filepath.Join(opts.OutDir, "cells"), 0o755); err != nil {
		return st, err
	}
	manifestPath := filepath.Join(opts.OutDir, ManifestName)
	done, err := ReadManifest(manifestPath)
	if err != nil {
		return st, err
	}
	var pending []Cell
	for _, cell := range cells {
		if e, ok := done[cell.ID]; ok && e.SpecSHA == cell.SHA && cellComplete(opts.OutDir, cell) {
			st.Skipped++
			continue
		}
		pending = append(pending, cell)
	}
	capped := pending
	if opts.MaxCells > 0 && len(capped) > opts.MaxCells {
		capped = capped[:opts.MaxCells]
	}
	cm := obs.Current().CampaignM()
	cm.CellsPlanned.Set(int64(st.Planned))
	cm.CellsResumedTotal.Add(int64(st.Skipped))
	fmt.Fprintf(logw, "campaign %s: %d cell(s), %d already done, running %d\n",
		c.Name, st.Planned, st.Skipped, len(capped))

	journal, err := openManifest(manifestPath)
	if err != nil {
		return st, err
	}
	defer journal.Close()

	workers := opts.Workers
	if workers <= 0 {
		workers = c.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(capped) {
		workers = len(capped)
	}

	jobs := make(chan Cell)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		executed int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range jobs {
				if failed() {
					continue
				}
				start := time.Now()
				cm.CellsRunning.Inc()
				res, err := runCell(cell, opts.OutDir)
				cm.CellsRunning.Dec()
				if err != nil {
					cm.CellsFailedTotal.Inc()
					if l := obs.Logger(); l != nil {
						l.Error("cell failed", "campaign", c.Name, "cell", cell.ID, "err", err)
					}
					fail(fmt.Errorf("campaign %s: cell %s: %w", c.Name, cell.ID, err))
					continue
				}
				cm.CellsDoneTotal.Inc()
				if l := obs.Logger(); l != nil {
					l.Info("cell complete", "campaign", c.Name, "cell", cell.ID,
						"bytes", res.TotalBytes, "sim_seconds", res.SimSeconds,
						"loss", res.FinalLoss, "wall_seconds", time.Since(start).Seconds())
				}
				if err := journal.Append(ManifestEntry{
					Cell:        cell.ID,
					SpecSHA:     cell.SHA,
					TotalBytes:  res.TotalBytes,
					FinalLoss:   res.FinalLoss,
					SimSeconds:  res.SimSeconds,
					WallSeconds: time.Since(start).Seconds(),
				}); err != nil {
					fail(fmt.Errorf("campaign %s: cell %s: journal: %w", c.Name, cell.ID, err))
					continue
				}
				mu.Lock()
				executed++
				n := executed
				mu.Unlock()
				if opts.Observer != nil {
					opts.Observer(cell.ID)
				}
				fmt.Fprintf(logw, "  [%d/%d] %-40s %12d B  sim %8.2fs  loss %.4f\n",
					n, len(capped), cell.ID, res.TotalBytes, res.SimSeconds, res.FinalLoss)
			}
		}()
	}
	for _, cell := range capped {
		jobs <- cell
	}
	close(jobs)
	wg.Wait()
	st.Executed = executed
	st.Remaining = st.Planned - st.Skipped - st.Executed
	if firstErr != nil {
		return st, firstErr
	}
	if st.Remaining > 0 {
		fmt.Fprintf(logw, "campaign %s: stopped with %d cell(s) remaining (re-run to resume)\n", c.Name, st.Remaining)
		return st, nil
	}
	if err := Aggregate(c, cells, opts.OutDir); err != nil {
		return st, err
	}
	st.Aggregated = true
	fmt.Fprintf(logw, "campaign %s: complete — aggregates written to %s\n", c.Name, opts.OutDir)
	return st, nil
}

// runCell executes one cell into its run directory, cells/<id>/. The
// directory is written under a temp name inside cells/ and renamed into
// place, replacing any stale one, once its record is written: a killed or
// failed cell leaves either a complete directory or none.
func runCell(cell Cell, outDir string) (res *CellResult, err error) {
	tmp, err := os.MkdirTemp(filepath.Join(outDir, "cells"), "."+cell.ID+".tmp*")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(tmp)
		}
	}()
	if res, err = writeCell(cell, tmp); err != nil {
		return nil, err
	}
	dir := cellDir(outDir, cell.ID)
	if err = os.RemoveAll(dir); err == nil {
		err = os.Rename(tmp, dir)
	}
	return res, err
}

// writeCell runs the cell's scenario and writes its artifacts into dir. A
// synchronous cell's per-round record streams round by round into dir, so a
// large-N cell holds one round, not the run's. Every artifact is synced
// before runCell renames dir into place and the journal records the cell.
func writeCell(cell Cell, dir string) (*CellResult, error) {
	var opts scenario.RunOptions
	var rounds *os.File
	if cell.Spec.Async == nil {
		var err error
		if rounds, err = os.OpenFile(filepath.Join(dir, cellRounds), os.O_RDWR|os.O_CREATE|os.O_TRUNC, engine.FileMode); err != nil {
			return nil, err
		}
		defer rounds.Close()
		opts.Rounds = rounds
	}
	out, err := cell.Spec.RunFull(opts)
	if err == nil && rounds != nil {
		err = errors.Join(rounds.Sync(), rounds.Close())
	}
	if err != nil {
		return nil, err
	}
	res := &CellResult{
		SchemaVersion: CellResultSchemaVersion,
		Cell:          cell.ID,
		SpecSHA:       cell.SHA,
		CellSummary: CellSummary{
			Algo:        cell.Spec.Algo,
			Nodes:       cell.Spec.Nodes,
			Rounds:      cell.Spec.Rounds,
			Seed:        cell.Spec.Seed,
			Shards:      cell.Spec.Shards,
			Bandwidth:   cell.Bandwidth,
			FleetTrace:  cell.Trace,
			Partition:   cell.Partition,
			Compression: cell.Compression,
			TotalBytes:  out.Result.TotalBytes,
			FinalLoss:   out.Result.FinalLoss,
			SimSeconds:  out.Result.SimSeconds,
		},
		Losses:        out.Losses,
		CumBytes:      out.CumBytes,
		CumSimSeconds: out.CumSimSeconds,
		Evals:         out.Evals,
		SentBytes:     out.SentBytes,
		RecvBytes:     out.RecvBytes,
	}
	if cell.Spec.PlannerOnly {
		res.MatchedMBps = out.MatchedMBps
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = engine.CommitFile(filepath.Join(dir, cellRecord), append(data, '\n'))
	}
	if err == nil && cell.Spec.Async != nil {
		err = writeAsyncArtifacts(dir, out)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// writeAsyncArtifacts writes an asynchronous run's event log, in both forms,
// and its final model words into dir.
func writeAsyncArtifacts(dir string, out *scenario.RunOutput) error {
	var csv bytes.Buffer
	if err := out.Events.WriteCSV(&csv); err != nil {
		return err
	}
	var model []byte
	for _, params := range out.Params {
		model = tensor.AppendWords(model, params)
	}
	return errors.Join(
		engine.CommitFile(filepath.Join(dir, cellEvents), out.Events.Bytes()),
		engine.CommitFile(filepath.Join(dir, cellEventsCSV), csv.Bytes()),
		engine.CommitFile(filepath.Join(dir, cellModel), model))
}
