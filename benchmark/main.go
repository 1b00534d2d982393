// Command benchmark is this repository's benchmark: five fleet workloads,
// six end-to-end metrics, and a traced per-layer budget of a round. See
// README.md for why each workload exists and how to read the numbers.
//
//	benchmark                          every workload, untraced then traced → out/result.json
//	benchmark -workload W -trace 0|1   one workload; the last line of output is its result
//	benchmark -compare a.json b.json   two result files, metric by metric against the bounds
//	benchmark -manifest                BENCHMARK.json, as the tables in report.go define it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"sapspsgd/internal/profiling"
)

// outDir is where result and trace files go.
var outDir = "out"

func main() {
	// The sandbox has two cores. Pinned rather than NumCPU so that a
	// workload's shard count means the same thing on every machine.
	runtime.GOMAXPROCS(2)

	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed         = flag.Uint64("seed", 7, "seed of every stream the program draws at run time")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		short        = flag.Bool("short", false, "shrink round counts (for the test suite; results are not comparable)")
		doCompare    = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		doManifest   = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.StringVar(&outDir, "out", outDir, "directory for result and trace files")
	flag.Parse()

	switch {
	case *doManifest:
		data, _ := json.MarshalIndent(theManifest(), "", "  ")
		fmt.Println(string(data))
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		a, err := loadResult(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadResult(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		lines, unresolved := compare(a, b)
		fmt.Println(strings.Join(lines, "\n"))
		if unresolved > 0 {
			fmt.Printf("%d unresolved\n", unresolved)
			os.Exit(1)
		}
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		d, err := runWorkload(w, *seed, *seconds, *trace == 1, *short)
		if err != nil {
			fatal(err)
		}
		printDetail(d)
		line, _ := json.Marshal(d.Line)
		fmt.Println(string(line))
	default:
		if err := runAll(*seed, *seconds, *short); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// shareOfRun is the part of -seconds given to the long pass; the rest is
// for set-up, the replays and the output checks. A traced run splits it
// between two plain passes and two wrapped ones.
const shareOfRun = 0.85

// runWorkload measures one workload. Untraced: one long pass, then two short
// replays of its first rounds from fresh fleets, which supply the set-up
// median and must reproduce the long pass's outputs bit for bit (async64,
// whose shorter run is no prefix of a longer one and whose run is timed as a
// whole, makes five equal passes instead). Traced: plain, wrapped, wrapped,
// plain passes of equal length, which must all agree bit for bit; the
// difference between the two kinds' rates is the cost of the wrappers, and
// in that order a steady drift in the machine's speed cancels out of it.
func runWorkload(w *workload, seed uint64, seconds float64, traced, short bool) (*runDetail, error) {
	equal := max(1, w.passes) // full-length passes of identical work
	if traced {
		equal = 4
	}
	sz := w.sizeFor(shareOfRun * seconds / float64(equal))
	if short {
		sz.timed = w.short
	}
	pass := func(sz size, wrapped bool) (*passOut, error) {
		runtime.GC() // every pass starts from a collected heap
		p, err := w.pass(seed, sz, wrapped)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return p, nil
	}
	// Short passes from fresh fleets. In a traced run one goes first: the
	// first pass of a process is a few percent slower than the second (a
	// fresh heap faults its pages in), which would otherwise be booked as
	// negative tracing overhead.
	var full, replays []*passOut
	replay := func() error {
		p, err := pass(size{sz.warm, min(max(1, w.replay), sz.timed)}, false)
		if err == nil {
			replays = append(replays, p)
		}
		return err
	}
	if traced {
		if err := replay(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < equal; i++ {
		p, err := pass(sz, traced && (i == 1 || i == 2))
		if err != nil {
			return nil, err
		}
		full = append(full, p)
	}
	plain := full[0]
	peakRSS := profiling.PeakRSS() // before the replays and checks allocate anything

	d := &runDetail{Workload: w.name, Seed: seed, Traced: traced, Short: short, Samples: map[string]int{}}
	var ref *passOut
	if w.reference != nil {
		var err error
		if ref, err = w.reference(seed, sz, traced); err != nil {
			return nil, err
		}
		d.Problems = append(d.Problems, ref.problems...)
		for _, p := range full {
			if p.failed == 0 {
				p.matchesReference(ref)
				p.finishLosses(sz.warm)
			}
		}
	}
	trains := len(plain.fleets) > 0 && plain.fleets[0].losses != nil
	if trains && !short && plain.failed == 0 && !(plain.finalLoss < plain.firstLoss) {
		plain.fail("final loss %v is not below the first timed round's %v", plain.finalLoss, plain.firstLoss)
	}
	for _, p := range full[1:] {
		if !p.sameOutputs(plain) {
			p.fail("does not reproduce the first pass's losses, bytes and simulated seconds bit for bit (traced: %v)", p.layers != nil)
		}
	}
	for i := 0; equal == 1 && i < 2; i++ {
		if err := replay(); err != nil {
			return nil, err
		}
	}
	for _, r := range replays {
		if w.passes <= 1 && !r.prefixOf(plain) {
			r.fail("a fresh fleet does not reproduce the long pass's first rounds bit for bit")
		}
	}
	var setups []float64
	for i, p := range append(full, replays...) {
		setups = append(setups, p.setupS)
		for _, problem := range p.problems {
			d.Problems = append(d.Problems, fmt.Sprintf("pass %d: %s", i, problem))
		}
		d.Line.Attempted += p.attempted
		d.Line.Failed += p.failed
	}
	d.Passes = len(full) + len(replays)
	if traced && w.tracedCheck != nil {
		if err := w.tracedCheck(); err != nil {
			d.Problems = append(d.Problems, err.Error())
		}
	}
	d.Line.Correct = len(d.Problems) == 0
	if !d.Line.Correct {
		d.Line.Failed = d.Line.Attempted // a workload whose outputs are wrong did no useful round
	}

	d.Line.Metrics = map[string]metricValue{}
	if !traced {
		values := map[string]float64{
			"setup_s":           percentile(setups, 0.5),
			"rounds_per_s":      roundRate(full...),
			"peak_rss_mb":       float64(peakRSS) / 1e6,
			"wire_mb_per_round": float64(plain.bytes) / 1e6 / float64(max(1, plain.rounds)),
			"sim_s_per_round":   plain.simS / float64(max(1, plain.rounds)),
			"final_loss":        plain.finalLoss,
		}
		for _, e := range endToEnd {
			d.Line.Metrics[e.Name] = metricValue{values[e.Name], e.Unit}
		}
	} else {
		wrapped := full[2]
		values := layerValues(w, wrapped, ref, d.Samples, short)
		values["bench.trace_overhead_share"] = 1 - ratio(roundRate(full[1], full[2]), roundRate(full[0], full[3]))
		for _, l := range perLayer {
			d.Line.Metrics[l.Name] = metricValue{values[l.Name], l.Unit} // 0 where the layer does not run
		}
		if ref != nil {
			wrapped.tracers = append(wrapped.tracers, ref.tracers...)
		}
		if err := writeTrace(filepath.Join(outDir, w.name+".trace.json"), wrapped); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(detailPath(w.name, traced), d); err != nil {
		return nil, err
	}
	return d, nil
}

// layerValues collects the per-layer metrics of a traced run: the wrapped
// pass's budget, percentiles over its timed rounds, and the per-call probes.
func layerValues(w *workload, wrapped, ref *passOut, samples map[string]int, short bool) map[string]float64 {
	values := map[string]float64{}
	for k, v := range wrapped.layers {
		values[k] = v
	}
	pcts := func(prefix string, xs []float64, ps ...float64) {
		for _, p := range ps {
			name := fmt.Sprintf("%s.round_s_p%.0f", prefix, 100*p)
			values[name] = percentile(xs, p)
			samples[name] = len(xs)
		}
	}
	switch {
	case ref != nil: // tcp8: rounds over sockets, against the same rounds without
		pcts("transport", wrapped.walls[0], 0.5, 0.9)
		values["transport.overhead_s_per_round"] = values["transport.round_s_p50"] - percentile(ref.walls[0], 0.5)
		for k, v := range ref.layers {
			values[k] = v
		}
	case len(wrapped.walls) > 1:
		for i, xs := range wrapped.walls {
			pcts("algos."+wrapped.fleets[i].label, xs, 0.5)
		}
	case len(wrapped.walls) == 1:
		pcts("algos", wrapped.walls[0], 0.5, 0.9)
	}
	calls := probeCalls
	if short {
		calls = 3
	}
	for k, v := range callProbes(w.name, calls) {
		values[k] = v
	}
	return values
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// detailPath is where a single-workload run leaves its detail for runAll.
func detailPath(workload string, traced bool) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.traced-%v.json", workload, traced))
}

func printDetail(d *runDetail) {
	fmt.Printf("%s (traced: %v, seed %d, %d passes): %d rounds attempted, %d failed\n",
		d.Workload, d.Traced, d.Seed, d.Passes, d.Line.Attempted, d.Line.Failed)
	var names []string
	for name := range d.Line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := d.Line.Metrics[name]
		note := ""
		if n, ok := d.Samples[name]; ok {
			note = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", name, v.Value, v.Unit, note)
	}
	for _, p := range d.Problems {
		fmt.Println("  output check failed:", p)
	}
}

// runAll runs every workload in a child process of its own, so that set-up
// time and peak memory belong to that workload alone: untraced for the
// end-to-end metrics, then traced for the per-layer ones.
func runAll(seed uint64, seconds float64, short bool) error {
	m, err := loadManifest()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := &result{
		Seed: seed, Comparable: !short, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workloads: map[string]*workloadResult{},
	}
	ok := true
	for _, w := range workloads {
		wr := &workloadResult{Why: w.why, Correct: true, Samples: map[string]int{}}
		res.Workloads[w.name] = wr
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", outDir,
			}
			if short {
				args = append(args, "-short")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
			}
			var d runDetail
			data, err := os.ReadFile(detailPath(w.name, trace == 1))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &d); err != nil {
				return err
			}
			if trace == 0 {
				wr.EndToEnd = d.Line.Metrics
				wr.RoundsAttempted, wr.RoundsFailed = d.Line.Attempted, d.Line.Failed
			} else {
				wr.PerLayer = d.Line.Metrics
			}
			for k, n := range d.Samples {
				wr.Samples[k] = n
			}
			wr.Problems = append(wr.Problems, d.Problems...)
			wr.Correct = wr.Correct && d.Line.Correct
		}
		ok = ok && wr.Correct && wr.RoundsFailed == 0
	}
	bad := validate(res, m)
	for _, b := range bad {
		fmt.Println("invalid result:", b)
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		return err
	}
	summary, _ := json.Marshal(struct {
		Result    string  `json:"result"`
		Workloads int     `json:"workloads"`
		Correct   bool    `json:"correct"`
		Valid     bool    `json:"valid"`
		Claim     *string `json:"claim"`
	}{path, len(res.Workloads), ok, len(bad) == 0, nil})
	fmt.Println(string(summary))
	if !ok || len(bad) > 0 {
		return fmt.Errorf("output checks or result validation failed")
	}
	return nil
}
