package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/scenario"
)

// maskedPair is ranks 0 and 1 of the spec's SAPS fleet, assembled as every
// deployment does (nodes and masked codecs sharing one mask cache).
func maskedPair(t testing.TB, spec *scenario.Spec) ([]*engine.MaskedGossipNode, []engine.Codec) {
	t.Helper()
	opts, _ := sapsFleet(t, spec, nil)
	gs := []*engine.MaskedGossipNode{opts.Nodes[0].(*engine.MaskedGossipNode), opts.Nodes[1].(*engine.MaskedGossipNode)}
	return gs, opts.Codecs
}

// exchange is one masked round between the pair: each rank encodes its live
// parameters and merges the other's payload.
func exchange(ctx engine.RoundContext, gs []*engine.MaskedGossipNode, codecs []engine.Codec) error {
	var words [2][]float64
	for i, g := range gs {
		x, _ := g.W.Model.Flat()
		w, err := codecs[i].Encode(ctx, x) // the codec's own payload buffer
		if err != nil {
			return err
		}
		words[i] = w
	}
	for i, g := range gs {
		if err := g.Merge(ctx, []engine.PeerMsg{{From: 1 - i, Vals: words[1-i]}}); err != nil {
			return err
		}
	}
	return nil
}

// TestMaskedMergeShortPayloadFails: a peer payload one word short of the
// round mask's count — what a malformed frame off the wire delivers, since
// Masked.Decode is the identity — fails the round with an error naming the
// round, the peer and both lengths; it does not panic, and the model is left
// as it was.
func TestMaskedMergeShortPayloadFails(t *testing.T) {
	gs, codecs := maskedPair(t, testSpec(1))
	ctx := engine.RoundContext{Round: 3, Seed: 99, Self: 0, N: 2}
	x, _ := gs[1].W.Model.Flat()
	words, err := codecs[1].Encode(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	k := len(words)
	before := gs[0].W.Model.FlatParams(nil)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Merge panicked on a short payload: %v", r)
		}
	}()
	err = gs[0].Merge(ctx, []engine.PeerMsg{{From: 1, Vals: words[:k-1]}})
	want := fmt.Sprintf("round 3, peer 1: core: peer payload %d values, mask has %d", k-1, k)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Merge error %v, want one containing %q", err, want)
	}
	after := gs[0].W.Model.FlatParams(nil)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("a refused payload changed parameter %d", i)
		}
	}
}

// TestMaskedEncodeMergeZeroAlloc: once the mask, payload and merge scratch
// have seen a round, the masked codec's Encode and the node's Merge allocate
// nothing, whatever each later round's mask count is.
func TestMaskedEncodeMergeZeroAlloc(t *testing.T) {
	gs, codecs := maskedPair(t, testSpec(1))
	round := 0
	step := func() {
		ctx := engine.RoundContext{Round: round, Seed: uint64(round+1) * 0x9e3779b97f4a7c15, N: 2}
		if err := exchange(ctx, gs, codecs); err != nil {
			t.Fatal(err)
		}
		round++
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state masked Encode+Merge allocates %.1f times per round, want 0", allocs)
	}
}

// BenchmarkMaskedEncodeMerge times one masked round between two ranks at the
// tcp8 workload's model (an 85,002-parameter MLP) under saps' c = 4 and the
// paper's c = 100: the mask draw, both gathers and both merges.
func BenchmarkMaskedEncodeMerge(b *testing.B) {
	for _, c := range []float64{4, 100} {
		b.Run(fmt.Sprintf("n=85002/c=%v", c), func(b *testing.B) {
			spec := testSpec(1)
			spec.Compression = c
			spec.Model.Hidden = []int{256, 256}
			spec.Data.Classes = 10
			gs, codecs := maskedPair(b, spec)
			if n := gs[0].W.Model.ParamCount(); n != 85002 {
				b.Fatalf("model has %d parameters, want 85002", n)
			}
			if err := exchange(engine.RoundContext{Seed: 7, N: 2}, gs, codecs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := exchange(engine.RoundContext{Round: i + 1, Seed: 7, N: 2}, gs, codecs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
