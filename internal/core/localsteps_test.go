package core

import (
	"testing"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/nn"
)

func TestLocalStepsMultiple(t *testing.T) {
	cfg := testConfig(2)
	cfg.LocalSteps = 4
	tr, _ := dataset.TinyTask(100, 3, 5)
	shards := dataset.PartitionIID(tr, 2, 1)
	w := newTestWorker(0, nn.NewMLP(tr.Dim(), []int{8}, 3, 1), shards[0], cfg)
	before := w.Loader.Epochs
	// 4 local steps of batch 8 over a 50-sample shard: about 2/3 of an
	// epoch per round; after 3 rounds the loader must have cycled.
	for round := 0; round < 3; round++ {
		loss := w.LocalSGD()
		if loss <= 0 {
			t.Fatalf("round %d loss %v", round, loss)
		}
	}
	if w.Loader.Epochs <= before {
		t.Fatal("multiple local steps did not advance the loader")
	}
}

func TestRoundMaskChangesEachRound(t *testing.T) {
	cfg := testConfig(2)
	cfg.Compression = 2
	tr, _ := dataset.TinyTask(60, 3, 5)
	shards := dataset.PartitionIID(tr, 2, 1)
	w := newTestWorker(0, nn.NewMLP(tr.Dim(), []int{8}, 3, 1), shards[0], cfg)
	n := w.Model.ParamCount()
	a := make([]bool, n)
	for _, i := range w.RoundMask(9, 1) {
		a[i] = true
	}
	for _, i := range w.RoundMask(9, 2) {
		a[i] = !a[i] // now on exactly when on in one of the two rounds
	}
	diff := 0
	for _, on := range a {
		if on {
			diff++
		}
	}
	if diff < n/4 {
		t.Fatalf("masks for consecutive rounds too similar: %d/%d differ", diff, n)
	}
}

func TestPayloadLenMatchesMaskDensity(t *testing.T) {
	cfg := testConfig(2)
	cfg.Compression = 4
	tr, _ := dataset.TinyTask(60, 3, 5)
	shards := dataset.PartitionIID(tr, 2, 1)
	w := newTestWorker(0, nn.NewMLP(tr.Dim(), []int{16}, 3, 1), shards[0], cfg)
	mask := w.RoundMask(3, 1)
	payload := maskedPayload(w, mask)
	if len(payload) != len(mask) {
		t.Fatalf("payload %d vs mask population %d", len(payload), len(mask))
	}
	n := w.Model.ParamCount()
	want := float64(n) / 4
	if float64(len(payload)) < want/2 || float64(len(payload)) > want*2 {
		t.Fatalf("payload %d far from N/c = %v", len(payload), want)
	}
}
