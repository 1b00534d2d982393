package transport

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sapspsgd/internal/netsim"
)

func TestAssembleBandwidth(t *testing.T) {
	reports := []MeasureReport{
		{Rank: 0, MBps: []float64{0, 10, 4}},
		{Rank: 1, MBps: []float64{8, 0, 0}}, // probe to 2 failed
		{Rank: 2, MBps: []float64{5, 6, 0}},
	}
	bw, err := AssembleBandwidth(3, reports, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (0,1): min(10, 8) = 8.
	if got := bw.MBps(0, 1); got != 8 {
		t.Fatalf("MBps(0,1) = %v, want 8", got)
	}
	// (1,2): 1→2 failed (0), mirrored from 2→1 = 6.
	if got := bw.MBps(1, 2); got != 6 {
		t.Fatalf("MBps(1,2) = %v, want 6", got)
	}
	// (0,2): min(4, 5) = 4.
	if got := bw.MBps(0, 2); got != 4 {
		t.Fatalf("MBps(0,2) = %v, want 4", got)
	}
}

func TestAssembleBandwidthErrors(t *testing.T) {
	if _, err := AssembleBandwidth(2, []MeasureReport{{Rank: 0, MBps: []float64{0, 1}}}, nil); err == nil {
		t.Fatal("missing report accepted")
	}
	if _, err := AssembleBandwidth(2, []MeasureReport{
		{Rank: 0, MBps: []float64{0, 1}},
		{Rank: 0, MBps: []float64{0, 1}},
	}, nil); err == nil {
		t.Fatal("duplicate report accepted")
	}
	if _, err := AssembleBandwidth(2, []MeasureReport{
		{Rank: 0, MBps: []float64{0}},
		{Rank: 1, MBps: []float64{1, 0}},
	}, nil); err == nil {
		t.Fatal("malformed report accepted")
	}
}

// TestAssembleBandwidthFallsBackOnFailedPair: ranks 0 and 1 both lost their
// probe of each other. The measured matrix takes that one link from the
// configured environment (CoordinatorServer.BW's documented role) instead of
// reading "no link", which the first exchange over it would panic on; with
// nothing to fall back on the error names the pair.
func TestAssembleBandwidthFallsBackOnFailedPair(t *testing.T) {
	reports := []MeasureReport{
		{Rank: 0, MBps: []float64{0, 0, 4}},
		{Rank: 1, MBps: []float64{0, 0, 6}},
		{Rank: 2, MBps: []float64{5, 7, 0}},
	}
	configured := netsim.NewBandwidth([][]float64{{0, 2.5, 9}, {2.5, 0, 9}, {9, 9, 0}})
	bw, err := AssembleBandwidth(3, reports, configured)
	if err != nil {
		t.Fatal(err)
	}
	if got := bw.MBps(0, 1); got != 2.5 {
		t.Fatalf("MBps(0,1) = %v, want the configured 2.5", got)
	}
	if bw.MBps(0, 2) != 4 || bw.MBps(1, 2) != 6 {
		t.Fatalf("measured links overwritten: (0,2) = %v, (1,2) = %v", bw.MBps(0, 2), bw.MBps(1, 2))
	}
	netsim.NewLedger(bw).Exchange(0, 1, 1000, 1000) // panics on a link without a speed

	noLink := netsim.NewBandwidth([][]float64{{0, 0, 9}, {0, 0, 9}, {9, 9, 0}})
	for name, fallback := range map[string]*netsim.Bandwidth{"nil": nil, "no such link": noLink} {
		_, err := AssembleBandwidth(3, reports, fallback)
		if err == nil || !strings.Contains(err.Error(), "ranks 0 and 1") {
			t.Fatalf("fallback %s: error %v does not name the pair", name, err)
		}
	}
}

// TestAssembleBandwidthRejectsNonFiniteSpeeds: one NaN entry made min(NaN, b)
// NaN, which NewBandwidth dropped as no link (the failure the fallback exists
// to prevent), and +Inf made a link that costs the ledger nothing. Every
// non-finite or negative entry is refused, naming the rank, peer and value.
func TestAssembleBandwidthRejectsNonFiniteSpeeds(t *testing.T) {
	configured := netsim.NewBandwidth([][]float64{{0, 2, 2}, {2, 0, 2}, {2, 2, 0}})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
		reports := []MeasureReport{
			{Rank: 0, MBps: []float64{0, 10, 4}},
			{Rank: 1, MBps: []float64{8, 0, 6}},
			{Rank: 2, MBps: []float64{5, bad, 0}},
		}
		_, err := AssembleBandwidth(3, reports, configured)
		want := fmt.Sprintf("rank 2 reported %v MB/s to peer 1", bad)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("speed %v: error %v, want one containing %q", bad, err, want)
		}
	}
}

func TestEndToEndWithMeasurementPhase(t *testing.T) {
	// Full training with the bandwidth measurement phase enabled: probes
	// run over loopback, so every measured link should be fast and
	// training must proceed normally.
	run := runFleet(t, &CoordinatorServer{Spec: tinySpec("saps", 3, 6), Measure: true, ProbeBytes: 16 << 10})
	if len(run.final) == 0 {
		t.Fatal("no model collected")
	}
}

func TestThroughputMBps(t *testing.T) {
	if got := throughputMBps(2e6, 1e9); got != 2 { // 2 MB in 1 s
		t.Fatalf("throughput = %v, want 2", got)
	}
	if got := throughputMBps(100, 0); got <= 0 {
		t.Fatalf("zero-duration throughput = %v, want positive", got)
	}
}
