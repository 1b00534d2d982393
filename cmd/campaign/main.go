// Command campaign executes a declarative experiment campaign: a JSON spec
// (internal/campaign) names a base scenario — or a directory of them — and
// a parameter grid, and the command expands the grid over every base into
// its deterministic run matrix, runs the cells across a bounded worker
// pool, journals completions to <out>/manifest.jsonl, and — once every cell
// is done — writes the aggregate figure artifacts (aggregate.json, summary.{md,csv},
// traffic_by_algo.{md,csv}, loss_vs_round.csv, loss_vs_bytes.csv, and — for
// the paper campaigns under campaigns/paper/ — the accuracy and
// matched-bandwidth artifacts EXPERIMENTS.md maps to the paper's tables and
// figures).
//
// Every cell leaves one run directory, <out>/cells/<id>/: its record
// cell.json and — for a synchronous cell — its per-round record rounds.csv,
// or — for an asynchronous cell — the determinism artifacts events.log,
// events.csv and model.bin, byte-identical at any GOMAXPROCS and under
// -race. A campaign over one spec with no grid is one cell, "base":
//
//	campaign -spec internal/campaign/testdata/adpsgd-async.json -out run1
//	GOMAXPROCS=1 campaign -spec internal/campaign/testdata/adpsgd-async.json -out run2
//	cmp run1/cells/base/events.log run2/cells/base/events.log   # byte-identical, always
//
// An interrupted campaign resumes by re-running the same command: cells
// already journaled (same ID and spec hash) are skipped, so only the
// missing work executes. Aggregates are byte-deterministic — repeat or
// resumed runs of an unchanged campaign produce identical artifacts.
//
//	campaign -spec internal/campaign/testdata/example.json -out /tmp/sweep
//	campaign -spec sweep.json -out out -workers 4
//	campaign -spec sweep.json -dry-run
//	campaign -spec campaigns/paper/ablations.json -out out -cpuprofile cpu.prof
//
// Per-cell wall seconds are journaled in manifest.jsonl; -obs-log text adds
// a "run complete" line per cell with wall seconds and peak RSS. It measures
// one commit: to compare a change against its parent, use the repository's
// benchmark (benchmark/README.md, -compare).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sapspsgd/internal/campaign"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/profiling"
)

var (
	flagSpec      = flag.String("spec", "", "campaign spec file (required)")
	flagOut       = flag.String("out", "campaign-out", "output directory (manifest, cells/<id>/, aggregates)")
	flagWorkers   = flag.Int("workers", 0, "concurrent cells (0 = spec value, then GOMAXPROCS)")
	flagMaxCells  = flag.Int("max-cells", 0, "stop after executing this many cells (0 = run all; the campaign stays resumable)")
	flagDryRun    = flag.Bool("dry-run", false, "print the expanded run matrix and exit without running")
	flagObsLinger = flag.Duration("obs-linger", 0, "keep the -obs-addr server up this long after the campaign finishes (lets a scraper take a final /metrics sample)")
	prof          profiling.Config
	obsFlags      obs.FlagConfig
)

func main() {
	prof.AddFlags(nil)
	obsFlags.AddFlags(nil)
	flag.Parse()
	obsSrv, err := obsFlags.Start()
	if err == nil {
		err = prof.Run(run)
		if obsSrv != nil && *flagObsLinger > 0 {
			time.Sleep(*flagObsLinger)
		}
	}
	obsSrv.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	if *flagSpec == "" {
		return fmt.Errorf("-spec is required")
	}
	spec, err := campaign.Load(*flagSpec)
	if err != nil {
		return err
	}
	if *flagDryRun {
		bases, err := spec.LoadBase()
		if err != nil {
			return err
		}
		cells, err := spec.Expand(bases...)
		if err != nil {
			return err
		}
		fmt.Printf("campaign %s: %d cell(s)\n", spec.Name, len(cells))
		for _, cell := range cells {
			fmt.Printf("  %3d  %-40s algo=%-10s nodes=%-4d rounds=%-4d seed=%-6d shards=%d  sha=%s\n",
				cell.Index, cell.ID, cell.Spec.Algo, cell.Spec.Nodes, cell.Spec.Rounds,
				cell.Spec.Seed, cell.Spec.Shards, cell.SHA)
		}
		return nil
	}
	stats, err := campaign.Run(spec, campaign.Options{
		OutDir:   *flagOut,
		Workers:  *flagWorkers,
		MaxCells: *flagMaxCells,
		Log:      os.Stdout,
	})
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s: %d planned, %d skipped, %d executed, %d remaining\n",
		spec.Name, stats.Planned, stats.Skipped, stats.Executed, stats.Remaining)
	return nil
}
