package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/scenario"
)

// The tests run miniatures of the workloads — the committed specs with a
// smaller fleet and two rounds — so the whole suite stays within seconds.

func mini(name string, nodes int, edit func(*scenario.Spec)) *scenario.Spec {
	s := loadSpec(name)
	s.Nodes = nodes
	s.Data.Samples = 64 * nodes
	if edit != nil {
		edit(s)
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

var (
	miniSAPS      = mini("saps512", 16, nil)
	miniBaselines = mini("baselines32", 8, func(s *scenario.Spec) { s.Model.Hidden = []int{16} })
	miniPlanner   = mini("plan10k", 200, nil)
	miniAsync     = mini("async64", 8, nil)
	twoRounds     = size{warm: 0, timed: 2}
)

func testOutDir(t *testing.T) {
	t.Helper()
	old := outDir
	outDir = t.TempDir()
	t.Cleanup(func() { outDir = old })
}

// TestWrappersAreTransparent: a fleet assembled from the recipe with every
// node, codec, planner and ledger wrapped produces the loss series, the
// ledger bytes and the simulated seconds of the product's own constructor,
// bit for bit.
func TestWrappersAreTransparent(t *testing.T) {
	testOutDir(t)
	runs := map[string]func(traced bool) (*passOut, error){
		"saps512": func(traced bool) (*passOut, error) {
			return syncPass(miniSAPS, []algoKnobs{{algo: "saps"}}, 3, twoRounds, traced)
		},
		"baselines32": func(traced bool) (*passOut, error) {
			return syncPass(miniBaselines, baselineAlgos, 3, twoRounds, traced)
		},
		"plan10k": func(traced bool) (*passOut, error) { return plannerRun(miniPlanner, 3, twoRounds, traced) },
		"async64": func(traced bool) (*passOut, error) { return asyncRun(miniAsync, 3, size{0, 4}, traced) },
		"tcp8-reference": func(traced bool) (*passOut, error) {
			return tcpReference(3, size{1, 3}, traced)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			plain, err := run(false)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := run(true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*passOut{plain, wrapped} {
				if p.failed != 0 || len(p.problems) != 0 {
					t.Fatalf("%d rounds failed, problems %v", p.failed, p.problems)
				}
			}
			if wrapped.layers == nil || plain.layers != nil {
				t.Fatal("the traced pass, and only it, must report layers")
			}
			if len(plain.fleets) == 0 || len(plain.fleets[0].bytes) == 0 || (plain.fleets[0].losses == nil && name != "plan10k") {
				t.Fatal("nothing to compare")
			}
			if plain.bytes == 0 || plain.simS == 0 {
				t.Fatalf("nothing was charged: %d bytes, %v s", plain.bytes, plain.simS)
			}
			if !wrapped.sameOutputs(plain) {
				t.Fatalf("wrapped run differs:\nplain   %v %v\nwrapped %v %v", plain.fleets, plain.simS, wrapped.fleets, wrapped.simS)
			}
			if !reflect.DeepEqual(plain.params, wrapped.params) {
				t.Fatal("wrapped run's model differs")
			}
		})
	}
}

// TestPlannerReplayMatchesRunFull: plan10k's own round loop charges what
// scenario.Spec.RunFull charges for the same planner_only spec.
func TestPlannerReplayMatchesRunFull(t *testing.T) {
	spec := miniPlanner.Clone()
	spec.Rounds = 12 // past the virtually-complete regime (t_thres 10)
	want, err := spec.RunFull(scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plannerRun(spec, spec.Seed, size{0, spec.Rounds}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.bytes != want.Result.TotalBytes || math.Float64bits(got.simS) != math.Float64bits(want.Result.SimSeconds) {
		t.Fatalf("replay %d bytes %v s, RunFull %d bytes %v s", got.bytes, got.simS, want.Result.TotalBytes, want.Result.SimSeconds)
	}
}

type intoOnly struct{ engine.Dense }

func (intoOnly) DecodeInto(dst []float64, _ engine.RoundContext, w []float64) ([]float64, error) {
	return append(dst[:0], w...), nil
}

type statefulOnly struct{ engine.Dense }

func (statefulOnly) CaptureState() ([]byte, error) { return nil, nil }
func (statefulOnly) RestoreState([]byte) error     { return nil }

// TestWrappedCodecKeepsOptionalInterfaces: the engine chooses its decode
// path and its checkpoint contents by type assertion, so a wrapper must
// answer each assertion as the codec inside it does.
func TestWrappedCodecKeepsOptionalInterfaces(t *testing.T) {
	tr := newTracer("test", 1)
	codecs := []engine.Codec{
		engine.Dense{}, engine.NewMasked(4), engine.NewTopK(2, 8, true), engine.NewRandomK(2, 1),
		engine.NewQSGDCodec(4, 1), intoOnly{}, statefulOnly{},
	}
	for _, c := range codecs {
		w := wrapCodec(c, tr)
		_, innerInto := c.(engine.DecoderInto)
		_, outerInto := w.(engine.DecoderInto)
		_, innerState := c.(engine.Stateful)
		_, outerState := w.(engine.Stateful)
		if innerInto != outerInto || innerState != outerState {
			t.Errorf("%T: DecoderInto %v→%v, Stateful %v→%v", c, innerInto, outerInto, innerState, outerState)
		}
		if w.Name() != c.Name() {
			t.Errorf("%T: name %q→%q", c, c.Name(), w.Name())
		}
	}
	// A decode through either path lands on the receiver's buffer.
	ctx := engine.RoundContext{Round: 5, Self: 0}
	w := wrapCodec(engine.NewTopK(2, 4, true), tr)
	words, err := w.Encode(ctx, []float64{1, -3, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.(engine.DecoderInto).DecodeInto(nil, ctx, words); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Decode(ctx, words); err != nil {
		t.Fatal(err)
	}
	var kinds []kind
	for _, s := range tr.ranks[0] {
		if s.round != 5 || s.end < s.start {
			t.Fatalf("bad span %+v", s)
		}
		kinds = append(kinds, s.kind)
	}
	if !reflect.DeepEqual(kinds, []kind{kEncode, kDecode, kDecode}) {
		t.Fatalf("recorded %v", kinds)
	}
}

// TestRoundBudgetAddsUp: at one shard the ranks run one after another, so
// the spans inside a round must not overlap, must lie inside the round's own
// span, and — with engine.self as the remainder — the per-layer seconds must
// add up to the round's wall as the pass's own clock measured it.
func TestRoundBudgetAddsUp(t *testing.T) {
	testOutDir(t)
	spec := miniSAPS.Clone()
	spec.Shards = 1
	sz := size{warm: 1, timed: 3}
	out, err := syncPass(spec, []algoKnobs{{algo: "saps"}}, 3, sz, true)
	if err != nil || len(out.problems) != 0 {
		t.Fatal(err, out.problems)
	}
	tr := out.tracers[0]
	rounds := map[int32]span{}
	var inner []span
	for _, s := range tr.coord {
		if s.kind == kRound {
			rounds[s.round] = s
		} else {
			inner = append(inner, s)
		}
	}
	for _, buf := range tr.ranks {
		inner = append(inner, buf...)
	}
	if len(rounds) != sz.warm+sz.timed || len(inner) == 0 {
		t.Fatalf("%d round spans, %d inner spans", len(rounds), len(inner))
	}
	sort.Slice(inner, func(i, j int) bool { return inner[i].start < inner[j].start })
	for i, s := range inner {
		r, ok := rounds[s.round]
		if !ok || s.start < r.start || s.end > r.end {
			t.Fatalf("span %+v is not inside round %+v", s, r)
		}
		if i > 0 && s.start < inner[i-1].end {
			t.Fatalf("spans overlap at one shard: %+v then %+v", inner[i-1], s)
		}
	}
	l := out.layers
	sum := l["core.plan_s_per_round"] + l["netsim.ledger_s_per_round"] + l["nn.compute_s_per_round"] +
		l["engine.encode_s_per_round"] + l["engine.decode_s_per_round"] + l["engine.merge_s_per_round"] +
		l["engine.self_s_per_round"]
	wall := out.wallS / float64(out.timed)
	if l["engine.self_s_per_round"] < 0 || math.Abs(sum-wall) > 0.02*wall {
		t.Fatalf("layers add up to %v s per round (self %v), the round's wall is %v", sum, l["engine.self_s_per_round"], wall)
	}
}

// TestSeedDrivesTheStreams: the same -seed reproduces a run's outputs, and
// another seed changes them.
func TestSeedDrivesTheStreams(t *testing.T) {
	run := func(seed uint64) *passOut {
		out, err := syncPass(miniSAPS, []algoKnobs{{algo: "saps"}}, seed, twoRounds, false)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, again, b := run(1), run(1), run(2)
	if !a.sameOutputs(again) {
		t.Fatal("the same seed gave different outputs")
	}
	if a.sameOutputs(b) {
		t.Fatal("another seed gave the same outputs")
	}
}

// TestShortRunPrintsTheContract drives two whole workloads as the command
// line does, -short, and checks the result line against BENCHMARK.json.
func TestShortRunPrintsTheContract(t *testing.T) {
	testOutDir(t)
	m := readManifest(t)
	for _, name := range []string{"tcp8", "async64"} {
		for _, traced := range []bool{false, true} {
			d, err := runWorkload(findWorkload(name), 7, 0, traced, true)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Line.Correct || d.Line.Failed != 0 || d.Line.Attempted < 1 {
				t.Fatalf("%s traced=%v: %+v %v", name, traced, d.Line, d.Problems)
			}
			want := map[string]string{}
			if traced {
				for _, l := range m.PerLayer {
					want[l.Name] = l.Unit
				}
			} else {
				for _, e := range m.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			if len(d.Line.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(d.Line.Metrics), len(want))
			}
			for metric, unit := range want {
				v, ok := d.Line.Metrics[metric]
				if !ok || v.Unit != unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v (present %v), want unit %q", name, traced, metric, v, ok, unit)
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, metric)
				}
			}
			var keys map[string]json.RawMessage
			line, _ := json.Marshal(d.Line)
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Fatalf("result line %s must have exactly correct, attempted, failed, metrics", line)
			}
			if traced {
				if _, err := os.Stat(outDir + "/" + name + ".trace.json"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables: BENCHMARK.json is what -manifest prints.
func TestManifestMatchesTables(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(theManifest(), "", "  ")
	if strings.TrimSpace(string(have)) != string(want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, l := range perLayer {
		if !nameRE.MatchString(l.Name) || len(l.Name) > 64 || seen[l.Name] || l.Moves == "" {
			t.Errorf("per-layer metric %q: malformed, duplicate, or missing what it should move", l.Name)
		}
		seen[l.Name] = true
	}
}

func fakeResult() *result {
	res := &result{Comparable: true, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		wr := &workloadResult{EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}, Samples: map[string]int{}, Correct: true}
		for _, e := range endToEnd {
			wr.EndToEnd[e.Name] = metricValue{1, e.Unit}
		}
		for _, l := range perLayer {
			wr.PerLayer[l.Name] = metricValue{1, l.Unit}
			if isPercentile(l.Name) {
				wr.Samples[l.Name] = 10
			}
		}
		res.Workloads[w.name] = wr
	}
	return res
}

func TestValidate(t *testing.T) {
	m := theManifest()
	if bad := validate(fakeResult(), m); len(bad) != 0 {
		t.Fatalf("a complete result is reported invalid: %v", bad)
	}
	breakIt := map[string]func(*result){
		"transport.aborts missing": func(r *result) { delete(r.Workloads["tcp8"].PerLayer, "transport.aborts") },
		"rounds_per_s missing":     func(r *result) { delete(r.Workloads["tcp8"].EndToEnd, "rounds_per_s") },
		`setup_s has unit "ms"`:    func(r *result) { r.Workloads["tcp8"].EndToEnd["setup_s"] = metricValue{1, "ms"} },
		"final_loss is NaN":        func(r *result) { r.Workloads["tcp8"].EndToEnd["final_loss"] = metricValue{math.NaN(), "loss"} },
		"compute_s_per_round is +Inf": func(r *result) {
			r.Workloads["tcp8"].PerLayer["nn.compute_s_per_round"] = metricValue{math.Inf(1), "s"}
		},
		"final_loss is 0":              func(r *result) { r.Workloads["plan10k"].EndToEnd["final_loss"] = metricValue{0, "loss"} },
		"round_s_p90 states no sample": func(r *result) { delete(r.Workloads["tcp8"].Samples, "transport.round_s_p90") },
		"async64: workload missing":    func(r *result) { delete(r.Workloads, "async64") },
		"does not declare":             func(r *result) { r.Workloads["tcp8"].PerLayer["extra"] = metricValue{1, "s"} },
	}
	for want, edit := range breakIt {
		r := fakeResult()
		edit(r)
		bad := strings.Join(validate(r, m), "\n")
		if !strings.Contains(bad, want) {
			t.Errorf("want a complaint containing %q, got %q", want, bad)
		}
	}
}

func TestCompare(t *testing.T) {
	a, b := fakeResult(), fakeResult()
	if _, unresolved := compare(a, b); unresolved != 0 {
		t.Fatalf("identical results: %d unresolved", unresolved)
	}
	b.Workloads["tcp8"].EndToEnd["rounds_per_s"] = metricValue{1.05, "1/s"}      // inside the bound
	b.Workloads["saps512"].EndToEnd["rounds_per_s"] = metricValue{0.70, "1/s"}   // outside
	b.Workloads["plan10k"].EndToEnd["peak_rss_mb"] = metricValue{2, "MB"}        // outside, better or not
	b.Workloads["async64"].EndToEnd["final_loss"] = metricValue{math.NaN(), "x"} // never comparable
	lines, unresolved := compare(a, b)
	if unresolved != 3 {
		t.Fatalf("%d unresolved, want 3:\n%s", unresolved, strings.Join(lines, "\n"))
	}
	flagged := 0
	for _, l := range lines {
		if strings.Contains(l, "unresolved") {
			flagged++
			if !strings.Contains(l, "saps512") && !strings.Contains(l, "plan10k") && !strings.Contains(l, "async64") {
				t.Errorf("wrongly flagged: %s", l)
			}
		}
	}
	if flagged != 3 {
		t.Fatalf("%d lines flagged", flagged)
	}
}
