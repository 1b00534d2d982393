package algos

import (
	"slices"
	"testing"
)

// TestRecipeAnswers: every algorithm states, in one row, each answer the
// other packages ask its Recipe instead of comparing its name — a new entry
// of AlgoNames without a row, or a method whose answer moves, fails here.
func TestRecipeAnswers(t *testing.T) {
	type answers struct {
		ratio                                           string
		adaptive, pairwise, anyPair, async, hub, oneWay bool
	}
	want := map[string]answers{
		"saps":         {ratio: "compression", adaptive: true, pairwise: true},
		"randomchoose": {ratio: "compression", pairwise: true, anyPair: true},
		"psgd":         {anyPair: true},
		"topk-psgd":    {ratio: "c", anyPair: true},
		"qsgd-psgd":    {anyPair: true},
		"d-psgd":       {},
		"dcd-psgd":     {ratio: "c"},
		"ps-psgd":      {hub: true},
		"fedavg":       {hub: true},
		"s-fedavg":     {ratio: "c", hub: true},
		"adpsgd":       {async: true},
		"gradpush":     {async: true, oneWay: true},
	}
	for _, algo := range AlgoNames {
		w, ok := want[algo]
		if !ok {
			t.Errorf("%s has no row: state every answer its recipe gives", algo)
			continue
		}
		delete(want, algo)
		r := Recipe{Algo: algo}
		got := answers{r.RatioField(), r.Adaptive(), r.Pairwise(), r.AnyPair(), r.Async(), r.Hub(), r.OneWay()}
		if got != w {
			t.Errorf("%s answers %+v, want %+v", algo, got, w)
		}
	}
	for algo := range want {
		t.Errorf("row %s names no entry of AlgoNames", algo)
	}
	if got := Names(Recipe.Pairwise); !slices.Equal(got, []string{"saps", "randomchoose"}) {
		t.Errorf("Names(Recipe.Pairwise) = %v", got)
	}
}
