package trace

import (
	"strings"
	"testing"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
)

func env() *netsim.Bandwidth {
	return netsim.NewBandwidth([][]float64{
		{0, 4, 2, 2},
		{4, 0, 2, 2},
		{2, 2, 0, 8},
		{2, 2, 8, 0},
	})
}

func TestRecorderStatistics(t *testing.T) {
	r := NewRecorder()
	bw := env()
	r.Record(0, graph.Matching{1, 0, 3, 2}, bw, false, 100, 4, 0.5)
	r.Record(1, graph.Matching{2, 3, 0, 1}, bw, true, 100, 4, 0.4)
	if r.Len() != 2 {
		t.Fatal("len")
	}
	// Round 0 pairs: (0,1)=4, (2,3)=8 → mean 6. Round 1: (0,2)=2, (1,3)=2 →
	// mean 2. Across rounds: 4.
	if got := r.MeanMatchedBandwidth(); got != 4 {
		t.Fatalf("MeanMatchedBandwidth = %v, want 4", got)
	}
	ev := r.Events()[0]
	if len(ev.Pairs) != 2 || ev.Pairs[0] != [2]int{0, 1} || ev.PairMBps[0] != 4 {
		t.Fatalf("event pairs wrong: %+v", ev)
	}
}

func TestRecorderCSV(t *testing.T) {
	r := NewRecorder()
	bw := env()
	r.Record(0, graph.Matching{1, 0, -1, -1}, bw, true, 64, 4, 1.25)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "round,pairs,") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "0,0-1,4.0000,true,64,4,1.250000") {
		t.Fatalf("row wrong:\n%s", out)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder()
	if r.MeanMatchedBandwidth() != 0 {
		t.Fatal("empty recorder statistics")
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 1 {
		t.Fatalf("empty CSV should be header only, got %d lines", lines)
	}
}

func TestRecorderSkipsUnmatchedRoundsInMean(t *testing.T) {
	r := NewRecorder()
	bw := env()
	r.Record(0, graph.Matching{-1, -1, -1, -1}, bw, false, 0, 4, 0)
	r.Record(1, graph.Matching{1, 0, -1, -1}, bw, false, 0, 4, 0)
	if got := r.MeanMatchedBandwidth(); got != 4 {
		t.Fatalf("mean = %v, want 4 (empty round excluded)", got)
	}
}

// TestRoundMeansSurviveStreaming: the per-round mean series (Fig. 5) and the
// statistics built on it are the same whether the recorder holds its events
// or streams them away.
func TestRoundMeansSurviveStreaming(t *testing.T) {
	bw := env()
	held, streamed := NewRecorder(), NewRecorder()
	var sink strings.Builder
	if err := streamed.Stream(&sink); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Recorder{held, streamed} {
		r.Record(0, graph.Matching{1, 0, 3, 2}, bw, false, 100, 4, 0.5)
		r.Record(1, graph.Matching{-1, -1, -1, -1}, bw, false, 100, 4, 0.4)
		r.Record(2, graph.Matching{2, 3, 0, 1}, bw, true, 100, 4, 0.3)
	}
	want := []float64{6, 0, 2}
	for _, r := range []*Recorder{held, streamed} {
		got := r.RoundMeans()
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("RoundMeans = %v, want %v", got, want)
		}
		if r.Len() != 3 || r.MeanMatchedBandwidth() != 4 {
			t.Fatalf("Len %d, MeanMatchedBandwidth %v", r.Len(), r.MeanMatchedBandwidth())
		}
	}
	if streamed.Events() != nil {
		t.Fatal("a streaming recorder kept its events")
	}
	var csv strings.Builder
	if err := held.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.String() != sink.String() {
		t.Fatalf("streamed CSV differs from the in-memory one:\n%s\nvs\n%s", sink.String(), csv.String())
	}
}
