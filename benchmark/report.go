package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// The benchmark's contract, in one place: BENCHMARK.json at the repository
// root is this table printed by -manifest, and a test keeps the two equal.

// runSeconds is how long one run measures unless -seconds says otherwise.
const runSeconds = 20

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the numbers a user of the system sees, reported by every
// workload. Bound is the share by which a metric may worsen before a change
// counts as a regression. Each is about three times the widest spread
// (quartile distance over median, ten seeds) seen on any workload: 9% for
// rounds_per_s on this sandbox, whose speed also drifts by up to 20% between
// one quarter of an hour and the next; 9% for sim_s_per_round, a maximum
// over matched links; 7% for final_loss; 5% for peak_rss_mb; 4% for
// wire_mb_per_round.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"wire_mb_per_round", "MB", "lower", 0.15},
	{"sim_s_per_round", "s", "lower", 0.25},
	{"final_loss", "loss", "lower", 0.25},
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metric and workloads this layer metric
	// should move. It is documentation, kept out of BENCHMARK.json, whose
	// per-layer entries take exactly name, unit and better.
	Moves string `json:"-"`
}

const (
	movesPlanner  = "rounds_per_s on plan10k (~all) and saps512 (~1/4); peak_rss_mb on plan10k"
	movesCompute  = "rounds_per_s on saps512 (~2/3), async64, baselines32 (~1/3); not plan10k"
	movesCodec    = "rounds_per_s on baselines32, <=5% on saps512; wire_mb_per_round everywhere"
	movesSnapshot = "nothing untraced today: a checkpoint stalls training for this long"
	movesLedger   = "rounds_per_s on plan10k and async64; sim_s_per_round everywhere"
	movesWire     = "rounds_per_s and setup_s on tcp8 only"
	movesSetup    = "setup_s"
)

// perLayer are the metrics of single layers, named after this repository's
// packages. A metric that does not apply to a workload reads 0 there.
var perLayer = []layerMetric{
	{"core.plan_s_per_round", "s", "lower", movesPlanner},
	{"core.plan_allocs_per_round", "count", "lower", movesPlanner},
	{"graph.greedy_s_per_call", "s", "lower", movesPlanner},
	{"graph.augment_s_per_call", "s", "lower", movesPlanner},
	{"graph.edges_per_call", "count", "lower", movesPlanner},
	{"graph.free_after_greedy", "count", "lower", movesPlanner},
	{"gossip.forced_rounds", "count", "lower", movesPlanner},
	{"gossip.matched_share", "ratio", "higher", movesPlanner},

	{"nn.compute_s_per_round", "s", "lower", movesCompute},
	{"nn.train_batch_s_per_call", "s", "lower", movesCompute},
	{"dataset.next_batch_s_per_call", "s", "lower", movesCompute},

	{"engine.encode_s_per_round", "s", "lower", movesCodec},
	{"engine.decode_s_per_round", "s", "lower", movesCodec},
	{"engine.merge_s_per_round", "s", "lower", movesCodec},
	{"engine.codec_calls_per_round", "count", "lower", movesCodec},
	{"engine.self_s_per_round", "s", "lower", movesCodec},
	{"engine.allocs_per_round", "count", "lower", movesCodec},
	{"compress.mask_s_per_call", "s", "lower", movesCodec},
	{"compress.topk_s_per_call", "s", "lower", movesCodec},
	{"compress.qsgd_s_per_call", "s", "lower", movesCodec},
	{"algos.psgd.round_s_p50", "s", "lower", movesCodec},
	{"algos.topk-psgd.round_s_p50", "s", "lower", movesCodec},
	{"algos.qsgd-psgd.round_s_p50", "s", "lower", movesCodec},
	{"algos.d-psgd.round_s_p50", "s", "lower", movesCodec},
	{"algos.dcd-psgd.round_s_p50", "s", "lower", movesCodec},
	{"algos.ps-psgd.round_s_p50", "s", "lower", movesCodec},
	{"algos.fedavg.round_s_p50", "s", "lower", movesCodec},
	{"algos.s-fedavg.round_s_p50", "s", "lower", movesCodec},
	{"algos.round_s_p50", "s", "lower", movesCodec},
	{"algos.round_s_p90", "s", "lower", movesCodec},

	{"engine.checkpoint_s", "s", "lower", movesSnapshot},
	{"engine.restore_s", "s", "lower", movesSnapshot},
	{"engine.snapshot_mb", "MB", "lower", movesSnapshot},
	{"transport.snapshot_save_s", "s", "lower", movesSnapshot},
	{"transport.snapshot_load_s", "s", "lower", movesSnapshot},

	{"netsim.ledger_s_per_round", "s", "lower", movesLedger},
	{"netsim.queue_op_s", "s", "lower", movesLedger},
	{"netsim.events_per_s", "1/s", "higher", movesLedger},
	{"engine.async_self_s_per_step", "s", "lower", movesLedger},

	{"transport.round_s_p50", "s", "lower", movesWire},
	{"transport.round_s_p90", "s", "lower", movesWire},
	{"transport.overhead_s_per_round", "s", "lower", movesWire},
	{"transport.connect_s", "s", "lower", movesWire},
	{"transport.aborts", "count", "lower", movesWire},

	{"dataset.gen_s", "s", "lower", movesSetup},
	{"dataset.partition_s", "s", "lower", movesSetup},
	{"algos.fleet_build_s", "s", "lower", movesSetup},
	{"netsim.env_build_s", "s", "lower", movesSetup},

	{"bench.trace_overhead_share", "ratio", "lower", "nothing: 1 - traced/untraced rounds_per_s, the cost of the wrappers themselves"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []nameWhy     `json:"workloads"`
	EndToEnd   []e2eMetric   `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func theManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, nameWhy{w.name, w.why})
	}
	return m
}

// ---------------------------------------------------------------------------
// Results

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLine is the last line of a single-workload run's standard output.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what a single-workload run leaves in the output directory for
// the full run to collect: the line, and what does not fit in it.
type runDetail struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Traced   bool           `json:"traced"`
	Short    bool           `json:"short"`
	Passes   int            `json:"passes"`
	Samples  map[string]int `json:"samples"` // sample count behind each percentile
	Problems []string       `json:"problems"`
	Line     runLine        `json:"line"`
}

type workloadResult struct {
	Why             string                 `json:"why"`
	EndToEnd        map[string]metricValue `json:"end_to_end"`
	PerLayer        map[string]metricValue `json:"per_layer"`
	Samples         map[string]int         `json:"samples"`
	RoundsAttempted int                    `json:"rounds_attempted"`
	RoundsFailed    int                    `json:"rounds_failed"`
	Correct         bool                   `json:"correct"`
	Problems        []string               `json:"problems"`
}

// result is the one file a full run writes. Claim stays last and null: this
// benchmark measures, it does not claim.
type result struct {
	Seed       uint64                     `json:"seed"`
	Comparable bool                       `json:"comparable"` // false for -short runs
	GoVersion  string                     `json:"go"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	Workloads  map[string]*workloadResult `json:"workloads"`
	Claim      *string                    `json:"claim"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// validate checks a result against the manifest: every declared metric
// present on every workload with the declared unit, names well formed, a
// sample count stated for every percentile, and no NaN or Inf anywhere.
func validate(res *result, m manifest) []string {
	var bad []string
	for _, w := range m.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			bad = append(bad, fmt.Sprintf("%s: workload missing", w.Name))
			continue
		}
		check := func(have map[string]metricValue, name, unit string) {
			v, ok := have[name]
			switch {
			case !nameRE.MatchString(name):
				bad = append(bad, fmt.Sprintf("%s: metric name %q is malformed", w.Name, name))
			case !ok:
				bad = append(bad, fmt.Sprintf("%s: metric %s missing", w.Name, name))
			case v.Unit != unit:
				bad = append(bad, fmt.Sprintf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, name, v.Unit, unit))
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				bad = append(bad, fmt.Sprintf("%s: metric %s is %v", w.Name, name, v.Value))
			}
			if isPercentile(name) && ok && v.Value != 0 {
				if _, stated := wr.Samples[name]; !stated {
					bad = append(bad, fmt.Sprintf("%s: percentile %s states no sample count", w.Name, name))
				}
			}
		}
		for _, e := range m.EndToEnd {
			check(wr.EndToEnd, e.Name, e.Unit)
			if v, ok := wr.EndToEnd[e.Name]; ok && v.Value == 0 {
				bad = append(bad, fmt.Sprintf("%s: end-to-end metric %s is 0", w.Name, e.Name))
			}
		}
		for _, l := range m.PerLayer {
			check(wr.PerLayer, l.Name, l.Unit)
		}
		if len(wr.EndToEnd) != len(m.EndToEnd) || len(wr.PerLayer) != len(m.PerLayer) {
			bad = append(bad, fmt.Sprintf("%s: reports metrics BENCHMARK.json does not declare", w.Name))
		}
	}
	return bad
}

func isPercentile(name string) bool {
	return strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p90")
}

// loadManifest reads BENCHMARK.json from the working directory or its
// parent (the benchmark runs from the repository root or from benchmark/).
func loadManifest() (manifest, error) {
	var m manifest
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(data, &m); err != nil {
			return m, fmt.Errorf("%s: %w", path, err)
		}
		return m, nil
	}
	return m, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints, per workload and end-to-end metric, the two values, b's
// relative difference from a and the metric's bound, and returns how many
// differences exceed their bound in either direction. Such a pair is
// unresolved: between two sets of runs of one commit it means the benchmark
// is noisier than its own bound; between a parent and a change it is where
// to look.
func compare(a, b *result) (lines []string, unresolved int) {
	if !a.Comparable || !b.Comparable {
		lines = append(lines, "warning: a -short result is not comparable")
	}
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	lines = append(lines, fmt.Sprintf("%-12s %-18s %14s %14s %9s %7s", "workload", "metric", "a", "b", "diff", "bound"))
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			lines = append(lines, fmt.Sprintf("%-12s missing from b: unresolved", name))
			unresolved++
			continue
		}
		for _, e := range endToEnd {
			va, vb := wa.EndToEnd[e.Name].Value, wb.EndToEnd[e.Name].Value
			diff := 0.0
			if va != vb {
				diff = (vb - va) / math.Abs(va)
			}
			flag := ""
			if math.Abs(diff) > e.Bound || math.IsNaN(diff) {
				flag = "  unresolved"
				unresolved++
			}
			lines = append(lines, fmt.Sprintf("%-12s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%%s",
				name, e.Name, va, vb, 100*diff, 100*e.Bound, flag))
		}
	}
	return lines, unresolved
}
