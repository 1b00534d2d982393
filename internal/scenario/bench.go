package scenario

import (
	"encoding/json"
	"os"
)

// BenchSchemaVersion is the schema of the summary cmd/fleetbench writes.
//
// v3 dropped the algorithms and perf sections: the summary is the sweep's
// own record and nothing compares two of them. Comparing a change against
// its parent is benchmark/'s job (benchmark/README.md, -compare).
const BenchSchemaVersion = 3

// BenchFile is the stable-schema summary of one cmd/fleetbench sweep. Byte
// totals, simulated seconds and losses are deterministic; wall fields are
// machine-dependent.
type BenchFile struct {
	SchemaVersion int    `json:"schema_version"`
	Source        string `json:"source"`
	GoMaxProcs    int    `json:"go_max_procs"`

	Scenarios []ScenarioSweep `json:"scenarios,omitempty"`
}

// ScenarioSweep is one scenario executed at several shard counts.
type ScenarioSweep struct {
	Name   string   `json:"name"`
	Algo   string   `json:"algo"`
	Nodes  int      `json:"nodes"`
	Rounds int      `json:"rounds"`
	Runs   []Result `json:"runs"`
	// Speedup is the serial (fewest-shards) wall time over the
	// most-sharded wall time — the headline parallel speedup.
	Speedup float64 `json:"speedup,omitempty"`
}

// ComputeSpeedup fills Speedup from the fewest- and most-sharded runs,
// whatever order the sweep recorded them in.
func (s *ScenarioSweep) ComputeSpeedup() {
	if len(s.Runs) < 2 {
		return
	}
	narrow, wide := s.Runs[0], s.Runs[0]
	for _, run := range s.Runs[1:] {
		if run.Shards < narrow.Shards {
			narrow = run
		}
		if run.Shards > wide.Shards {
			wide = run
		}
	}
	if narrow.Shards != wide.Shards && wide.WallSeconds > 0 {
		s.Speedup = narrow.WallSeconds / wide.WallSeconds
	}
}

// WriteBench writes the summary with the canonical encoding.
func WriteBench(path string, f *BenchFile) error {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
