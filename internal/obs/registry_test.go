package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestNilSinkNoOps proves the disabled path: every metric method must be
// callable on a nil receiver (the zero-value bundle instrumented code
// captures when observability is off) without panicking or recording.
func TestNilSinkNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil Counter.Value = %d, want 0", c.Value())
	}
	var g *Gauge
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatalf("nil Gauge.Value = %d, want 0", g.Value())
	}
	var fc *FloatCounter
	fc.Add(1.5)
	if fc.Value() != 0 {
		t.Fatalf("nil FloatCounter.Value = %v, want 0", fc.Value())
	}
	var fg *FloatGauge
	fg.Set(2.5)
	if fg.Value() != 0 {
		t.Fatalf("nil FloatGauge.Value = %v, want 0", fg.Value())
	}
	var h *Histogram
	h.Observe(0.1)
	if h.Count() != 0 || h.Sum() != 0 || h.BucketCounts() != nil {
		t.Fatal("nil Histogram recorded something")
	}
	var rt *RunTracker
	ri := rt.Start("x", "saps", 4, 10)
	if ri != nil {
		t.Fatal("nil RunTracker.Start returned a record")
	}
	ri.SetRound(3)
	ri.Finish()
	rt.Done(ri)

	// A nil *Metrics yields zero-value bundles whose fields are all nil.
	var m *Metrics
	em := m.EngineM()
	if em.Enabled() {
		t.Fatal("nil Metrics yielded an enabled engine bundle")
	}
	em.RoundsTotal.Inc()
	em.RoundSeconds.Observe(0.5)
	m.TransportM().RejoinsTotal.Inc()
	m.NetsimM().VirtualSeconds.Set(1)
	m.CampaignM().CellsRunning.Inc()
	pm := m.PlannerM()
	if pm.Enabled() {
		t.Fatal("nil Metrics yielded an enabled planner bundle")
	}
	pm.PlanSeconds.Observe(0.5)
	pm.GreedySecondsTotal.Add(0.1)
	pm.FreeAfterGreedy.Set(3)
	pm.ForcedRoundsTotal.Inc()
	m.RunsM().Start("x", "saps", 1, 1).SetRound(1)
}

// TestHistogramBuckets pins the Prometheus le semantics: an observation
// lands in the first bucket whose upper bound satisfies v <= le, and the
// rendered buckets are cumulative.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("test_seconds", "help", 1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 5} {
		h.Observe(v)
	}
	// 0.5 and 1 land in le=1 (boundary value included); 1.5 and 2 in
	// le=2; 4 in le=4; 5 overflows to +Inf.
	want := []int64{2, 4, 5, 6}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("BucketCounts len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 14 {
		t.Fatalf("Sum = %v, want 14", h.Sum())
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"unsorted":  {2, 1},
		"duplicate": {1, 1, 2},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram("bad", "help", bounds...)
		})
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCounter("dup_total", "a"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.MustRegister(NewGauge("dup_total", "b"))
}

// TestGoldenExposition renders a registry with one metric of every type
// and fixed values, and byte-compares against the committed golden file —
// the scrape format is a contract with external tooling.
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("demo_rounds_total", "Rounds completed.")
	g := NewGauge("demo_cells_running", "Cells in flight.")
	fc := NewFloatCounter("demo_sim_seconds_total", "Simulated seconds.")
	fg := NewFloatGauge("demo_virtual_seconds", "Virtual clock.")
	h := NewHistogram("demo_round_seconds", "Seconds per round.", 0.001, 0.1, 1)
	r.MustRegister(c, g, fc, fg, h)
	c.Add(42)
	g.Set(3)
	fc.Add(1.5)
	fg.Set(0.25)
	for _, v := range []float64{0.0005, 0.05, 0.05, 2} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", buf.Bytes())
}

// checkGolden byte-compares got against testdata/name (rewriting it first
// under -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestPlannerGoldenExposition pins the planner family's scrape — names,
// help, types and bucket layout — as the catalog registers it.
func TestPlannerGoldenExposition(t *testing.T) {
	p := New().Planner
	r := NewRegistry()
	r.MustRegister(p.PlanSeconds, p.GreedySecondsTotal, p.AugmentSecondsTotal,
		p.FreeAfterGreedy, p.MatchedPairs, p.ForcedRoundsTotal)
	for _, v := range []float64{0.004, 0.011, 0.3} {
		p.PlanSeconds.Observe(v)
	}
	p.GreedySecondsTotal.Add(0.125)
	p.AugmentSecondsTotal.Add(0.0625)
	p.FreeAfterGreedy.Set(1120)
	p.MatchedPairs.Set(4999)
	p.ForcedRoundsTotal.Add(4)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "planner.golden", buf.Bytes())
}

// TestWriteJSON checks the snapshot endpoint decodes and carries the
// values the text exposition reports.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("j_total", "help")
	h := NewHistogram("j_seconds", "help", 1, 10)
	r.MustRegister(c, h)
	c.Add(7)
	h.Observe(0.5)
	h.Observe(20)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]struct {
		Kind  string          `json:"kind"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if snap["j_total"].Kind != "counter" || string(snap["j_total"].Value) != "7" {
		t.Fatalf("j_total snapshot = %+v", snap["j_total"])
	}
	var hv struct {
		Buckets []int64 `json:"buckets"`
		Count   int64   `json:"count"`
	}
	if err := json.Unmarshal(snap["j_seconds"].Value, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Count != 2 || len(hv.Buckets) != 3 || hv.Buckets[2] != 2 {
		t.Fatalf("j_seconds snapshot = %+v", hv)
	}
}

// TestConcurrentUpdates hammers every metric type from many goroutines
// while scraping — the run-under-race proof that the hot path and the
// exposition path are data-race free.
func TestConcurrentUpdates(t *testing.T) {
	m := New()
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Engine.RoundsTotal.Inc()
				m.Engine.WireBytesTotal.Add(3)
				m.Engine.SimSecondsTotal.Add(0.001)
				m.Engine.RoundSeconds.Observe(float64(i%7) * 0.01)
				m.Netsim.VirtualSeconds.Set(float64(i))
				m.Campaign.CellsRunning.Inc()
				m.Campaign.CellsRunning.Dec()
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 50; i++ {
				buf.Reset()
				if err := m.Registry.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Engine.RoundsTotal.Value(); got != workers*iters {
		t.Fatalf("RoundsTotal = %d, want %d", got, workers*iters)
	}
	if got := m.Engine.WireBytesTotal.Value(); got != 3*workers*iters {
		t.Fatalf("WireBytesTotal = %d, want %d", got, 3*workers*iters)
	}
	if got := m.Engine.RoundSeconds.Count(); got != workers*iters {
		t.Fatalf("RoundSeconds.Count = %d, want %d", got, workers*iters)
	}
	if got := m.Campaign.CellsRunning.Value(); got != 0 {
		t.Fatalf("CellsRunning = %d, want 0 after balanced Inc/Dec", got)
	}
}

// TestEnableDisable checks the global sink swap and the chain-safety of
// Current() while disabled.
func TestEnableDisable(t *testing.T) {
	defer Enable(nil)
	if Current() != nil {
		t.Fatal("sink enabled before Enable")
	}
	Current().EngineM().RoundsTotal.Inc() // must not panic while off
	m := New()
	Enable(m)
	if Current() != m {
		t.Fatal("Current() did not return the enabled sink")
	}
	Current().EngineM().RoundsTotal.Inc()
	if m.Engine.RoundsTotal.Value() != 1 {
		t.Fatalf("RoundsTotal = %d, want 1", m.Engine.RoundsTotal.Value())
	}
	Enable(nil)
	if Current() != nil {
		t.Fatal("Disable did not clear the sink")
	}
}
