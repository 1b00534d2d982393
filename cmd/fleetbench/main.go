// Command fleetbench sweeps declarative fleet scenarios across engine shard
// counts and writes the stable-schema BENCH.json summary of the sweep.
//
// Every *.json spec in -scenarios runs once per -shards entry; bytes must
// agree across shard counts (the sharded runtime is deterministic), wall
// time should not.
//
//	fleetbench -scenarios internal/scenario/testdata -shards 1,8 -out BENCH.json
//	fleetbench -scenarios internal/scenario/testdata/saps-512.json -shards 1,2,4,8
//
// It measures one commit. To compare a change against its parent, use the
// repository's benchmark (benchmark/README.md, -compare).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"sapspsgd/internal/obs"
	"sapspsgd/internal/profiling"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/trace"
)

var (
	flagScenarios = flag.String("scenarios", "internal/scenario/testdata", "scenario spec file or directory")
	flagShards    = flag.String("shards", "1,8", "comma-separated engine shard counts to sweep")
	flagRounds    = flag.Int("rounds", 0, "override every spec's round count (0 = spec value)")
	flagOut       = flag.String("out", "BENCH.json", "summary output path")
	flagTraceDir  = flag.String("trace-dir", "", "write per-round trace CSVs (<name>-shards<k>.csv) here for traceable specs")
	prof          profiling.Config
	obsFlags      obs.FlagConfig
)

func main() {
	prof.AddFlags(nil)
	obsFlags.AddFlags(nil)
	flag.Parse()
	obsSrv, err := obsFlags.Start()
	if err == nil {
		err = prof.Run(sweep)
	}
	obsSrv.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -shards")
	}
	return out, nil
}

func sweep() error {
	shards, err := parseShards(*flagShards)
	if err != nil {
		return err
	}
	specs, err := scenario.LoadPath(*flagScenarios)
	if err != nil {
		return err
	}
	if *flagTraceDir != "" {
		if err := os.MkdirAll(*flagTraceDir, 0o755); err != nil {
			return err
		}
	}
	out := &scenario.BenchFile{
		SchemaVersion: scenario.BenchSchemaVersion,
		Source:        "fleetbench",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}
	for _, loaded := range specs {
		// Sweep overrides apply to a copy: the loaded spec must survive
		// unaltered in case another sweep (or a repeated -scenarios entry)
		// reads it again in this invocation.
		spec := loaded.Clone()
		if *flagRounds > 0 {
			spec.Rounds = *flagRounds
		}
		sw := scenario.ScenarioSweep{Name: spec.Name, Algo: spec.Algo, Nodes: spec.Nodes, Rounds: spec.Rounds}
		for _, sc := range shards {
			// Traces stream straight to disk: the recorder holds one round
			// of scratch instead of the whole history, so a 50k-node
			// planner_only sweep over tens of thousands of rounds stays
			// flat in memory.
			var rec *trace.Recorder
			var tf *os.File
			if *flagTraceDir != "" && spec.Traceable() {
				path := filepath.Join(*flagTraceDir, fmt.Sprintf("%s-shards%d.csv", spec.Name, sc))
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				tf = f
				rec = trace.NewRecorder()
				if err := rec.Stream(tf); err != nil {
					tf.Close()
					return err
				}
			}
			run, err := spec.RunFull(scenario.RunOptions{Shards: sc, Recorder: rec})
			if tf != nil {
				if err == nil {
					err = rec.Err()
				}
				if cerr := tf.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				return fmt.Errorf("scenario %s shards=%d: %w", spec.Name, sc, err)
			}
			res := run.Result
			sw.Runs = append(sw.Runs, res)
			fmt.Printf("%-24s shards=%-3d %8.3fs wall  %6.2f rounds/s  %12d B  sim %.2fs  loss %.4f\n",
				spec.Name, sc, res.WallSeconds, res.RoundsPerSec, res.TotalBytes, res.SimSeconds, res.FinalLoss)
		}
		sw.ComputeSpeedup()
		if sw.Speedup > 0 {
			lo, hi := shards[0], shards[0]
			for _, sc := range shards[1:] {
				lo, hi = min(lo, sc), max(hi, sc)
			}
			fmt.Printf("%-24s speedup ×%.2f (%d→%d shards)\n", spec.Name, sw.Speedup, lo, hi)
		}
		out.Scenarios = append(out.Scenarios, sw)
	}
	if err := scenario.WriteBench(*flagOut, out); err != nil {
		return err
	}
	fmt.Printf("fleetbench: wrote %s (%d scenario(s) × %d shard count(s))\n", *flagOut, len(specs), len(shards))
	return nil
}
