// Oracle, decode-count and mismatch tests for the AllGather pattern. This
// file is in package engine (not engine_test) because it reads the shard
// runner's reports and the unexported sparse helpers.
package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine/memtransport"
)

// canonicalSum is the all-gather's aggregate by definition: a copy of
// payload 0's decode, then every later payload's decode added in ascending
// sender rank. It does not change when the pattern does.
func canonicalSum(decoded [][]float64) []float64 {
	sum := append([]float64(nil), decoded[0]...)
	for _, vals := range decoded[1:] {
		for j, v := range vals {
			sum[j] += v
		}
	}
	return sum
}

// sumNode shares one prepared vector per round and keeps what Merge hands it.
type sumNode struct {
	outs [][]float64 // by round
	got  [][]float64 // by round: the aggregate Merge received
}

func (n *sumNode) Compute(ctx RoundContext) (float64, []float64, error) {
	return 1, n.outs[ctx.Round], nil
}

func (n *sumNode) Merge(_ RoundContext, msgs []PeerMsg) error {
	n.got = append(n.got, append([]float64(nil), msgs[0].Vals...))
	return nil
}

// uglyVector is a seeded vector salted with the values a sum can get wrong:
// +0 and -0 (over half of it, so a large top-k has to select zeros), pairs
// of equal magnitude and opposite sign, and repeated magnitudes.
func uglyVector(dim int, seed uint64) []float64 {
	x := make([]float64, dim)
	s := seed*2654435761 + 1
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		v := float64(int64(s>>33)) / float64(1<<31)
		switch (s >> 20) % 8 {
		case 0, 1, 2:
			v = 0
		case 3, 4:
			v = math.Copysign(0, -1)
		case 5:
			v = math.Copysign(0.5, v) // duplicate magnitudes, both signs
		}
		x[i] = v
	}
	return x
}

// gatherRun drives rounds of one all-gather on the sharded engine and
// returns, per rank, the aggregates Merge received and the per-round reports.
func gatherRun(t *testing.T, pat Pattern, outs [][][]float64, codecs []Codec, shards int) ([][][]float64, [][]NodeReport) {
	t.Helper()
	n := len(outs)
	nodes := make([]Node, n)
	for r := range nodes {
		nodes[r] = &sumNode{outs: outs[r]}
	}
	eng := New(Options{Nodes: nodes, Codecs: codecs, Pattern: pat, Shards: shards,
		Planner: PlannerFunc(func(tt int) core.RoundPlan { return core.RoundPlan{Round: tt} })})
	defer eng.Close()
	reports := make([][]NodeReport, n)
	for round := range outs[0] {
		if _, err := eng.RunRound(core.RoundPlan{Round: round}); err != nil {
			t.Fatal(err)
		}
		for r, rep := range eng.sharded.reports {
			rep.Flows = append([]Flow(nil), rep.Flows...)
			reports[r] = append(reports[r], rep)
		}
	}
	got := make([][][]float64, n)
	for r := range nodes {
		got[r] = nodes[r].(*sumNode).got
	}
	return got, reports
}

// sameBits fails the test unless got and want agree on every bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s coord %d: %x (%v), want %x (%v)", what, j, math.Float64bits(got[j]), got[j], math.Float64bits(want[j]), want[j])
		}
	}
}

// TestAllGatherMatchesCanonicalOracle holds every rank's aggregate to
// canonicalSum over the payloads' own Decode, bit for bit, and its flows and
// payload length to the words each rank shipped: at every fleet size and
// shard count, for every codec an all-gather can carry, on each of the
// pattern's three ways of reading words (sparse, QSGD, decoded), and on the
// inputs a shortcut gets wrong. The -0 rule rides on it: packSparse ships
// v + 0, so the oracle (which starts from payload 0's values) and the
// scatter-add (which adds them to +0) see the same words and can only agree.
func TestAllGatherMatchesCanonicalOracle(t *testing.T) {
	const dim, rounds = 97, 3
	cases := []struct {
		name  string
		pat   AllGather
		codec func(rank int) Codec
		salt  func(outs [][][]float64) // optional extra salting
	}{
		{"topk-ef", AllGather{Sparse: true}, func(int) Codec { return NewTopK(8, dim, true) }, nil},
		{"topk", AllGather{Sparse: true}, func(int) Codec { return NewTopK(8, dim, false) }, nil},
		// k above the nonzero count: the selection ships zeros of both signs.
		{"topk-zeros", AllGather{Sparse: true}, func(int) Codec { return NewTopK(70, dim, false) }, nil},
		{"topk-ef-zeros", AllGather{Sparse: true}, func(int) Codec { return NewTopK(70, dim, true) }, nil},
		{"randomk", AllGather{Sparse: true}, func(r int) Codec { return NewRandomK(20, uint64(r)+3) }, nil},
		// A sparse codec on the decoding path: expanded, then added densely.
		{"topk-decoded", AllGather{}, func(int) Codec { return NewTopK(8, dim, true) }, nil},
		{"qsgd-1", AllGather{Levels: 1}, func(r int) Codec { return NewQSGDCodec(1, uint64(r)+1) }, nil},
		{"qsgd-16", AllGather{Levels: 16}, func(r int) Codec { return NewQSGDCodec(16, uint64(r)+1) }, nil},
		// Codes of every size over a level count that is not a power of two:
		// here the order of the multiply and the divide shows.
		{"qsgd-100", AllGather{Levels: 100}, func(r int) Codec { return NewQSGDCodec(100, uint64(r)+1) }, nil},
		{"qsgd-zero-and-inf-norm", AllGather{Levels: 16}, func(r int) Codec { return NewQSGDCodec(16, uint64(r)+1) }, func(outs [][][]float64) {
			last := len(outs) - 1
			for j := range outs[0][1] {
				outs[0][1][j] = 0 // rank 0, round 1: norm 0
			}
			outs[last][1][5] = math.Inf(1) // last rank, round 1: norm +Inf
			// Round 2: coordinate 0 sums −0 codes up to the last rank, whose
			// norm 0 turns the −0 into +0.
			for r := range outs {
				outs[r][2][0] = -1e-12
			}
			for j := range outs[last][2] {
				outs[last][2][j] = 0
			}
		}},
		{"qsgd-decoded", AllGather{}, func(r int) Codec { return NewQSGDCodec(16, uint64(r)+1) }, nil},
		{"dense", AllGather{}, func(int) Codec { return Dense{} }, nil},
	}
	for _, tc := range cases {
		for _, n := range []int{1, 2, 5, 32} {
			for _, shards := range []int{1, 2} {
				outs := make([][][]float64, n)
				for r := range outs {
					for round := 0; round < rounds; round++ {
						outs[r] = append(outs[r], uglyVector(dim, uint64(r*rounds+round)+7))
					}
				}
				if tc.salt != nil {
					tc.salt(outs)
				}
				table := func() []Codec {
					cs := make([]Codec, n)
					for r := range cs {
						cs[r] = tc.codec(r)
					}
					return cs
				}
				got, gotRep := gatherRun(t, tc.pat, outs, table(), shards)

				// The oracle re-encodes every rank's inputs with a fresh table
				// (the codecs' state advances exactly as the engine's did).
				oracle := table()
				for round := 0; round < rounds; round++ {
					words := make([][]float64, n)
					decoded := make([][]float64, n)
					for r := range words {
						ctx := RoundContext{Round: round, Self: r, N: n}
						w, err := oracle[r].Encode(ctx, outs[r][round])
						if err != nil {
							t.Fatal(err)
						}
						words[r] = append([]float64(nil), w...)
						if decoded[r], err = oracle[r].Decode(ctx, words[r]); err != nil {
							t.Fatal(err)
						}
					}
					want := canonicalSum(decoded)
					for r := 0; r < n; r++ {
						where := fmt.Sprintf("%s n=%d shards=%d rank %d round %d", tc.name, n, shards, r, round)
						sameBits(t, where, got[r][round], want)
						rep := gotRep[r][round]
						if rep.PayloadLen != len(words[r]) || len(rep.Flows) != n-1 {
							t.Fatalf("%s: report %+v, want payload %d and %d flows", where, rep, len(words[r]), n-1)
						}
						for i, q := 0, 0; q < n; q++ {
							if q == r {
								continue
							}
							wantFlow := Flow{Peer: q, Sent: oracle[r].WireBytes(words[r]), Recv: oracle[q].WireBytes(words[q])}
							if rep.Flows[i] != wantFlow {
								t.Fatalf("%s flow %d: %+v, want %+v", where, i, rep.Flows[i], wantFlow)
							}
							i++
						}
					}
				}
			}
		}
	}

	// The summation order is part of the result: (1e16 + 1) − 1e16 on every
	// rank, ascending sender rank whoever sums — at the parent rank 2 added
	// its own −1e16 first and kept the 1. The one coordinate is summed by
	// rank 2 alone; ranks 0 and 1 own empty slices.
	a, b, c := 1e16, 1.0, -1e16
	want := []float64{(a + b) + c}
	for _, shards := range []int{1, 2} {
		order, _ := gatherRun(t, AllGather{}, [][][]float64{{{a}}, {{b}}, {{c}}}, []Codec{Dense{}, Dense{}, Dense{}}, shards)
		for r := range order {
			sameBits(t, fmt.Sprintf("order shards=%d rank %d", shards, r), order[r][0], want)
		}
	}
}

// TestSparseWireCarriesNoNegativeZero states the -0 rule on its own: a
// selected -0 ships as +0, and that is the one place the scatter-add and the
// dense add of hand-built words could part (a -0 that only ever meets other
// -0s stays -0 when assigned and added densely, and becomes +0 when added to
// a +0 accumulator).
func TestSparseWireCarriesNoNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	words, err := NewTopK(3, 3, false).Encode(RoundContext{}, []float64{negZero, 2, negZero})
	if err != nil {
		t.Fatal(err)
	}
	_, _, vals, err := SparseWords(words)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v == 0 && math.Signbit(v) {
			t.Fatalf("value %d of %v ships as -0", i, vals)
		}
	}
	acc := []float64{0}
	if err := AddSparse(acc, []float64{1, 1, 0, negZero}); err != nil {
		t.Fatal(err)
	}
	dense, err := decodeSparseInto(nil, []float64{1, 1, 0, negZero})
	if err != nil {
		t.Fatal(err)
	}
	if math.Signbit(acc[0]) || !math.Signbit(dense[0]) {
		t.Fatalf("hand-built -0: scatter-add %v, decode %v; want +0 and -0", acc[0], dense[0])
	}
}

// wireOnlyCodec ships another codec's words and decodes them as the identity
// codecs do: the way to hand a decoding all-gather sparse words.
type wireOnlyCodec struct{ inner Codec }

func (c wireOnlyCodec) Name() string { return "wire-only" }
func (c wireOnlyCodec) Encode(ctx RoundContext, dense []float64) ([]float64, error) {
	return c.inner.Encode(ctx, dense)
}
func (c wireOnlyCodec) Decode(_ RoundContext, words []float64) ([]float64, error) { return words, nil }
func (c wireOnlyCodec) WireBytes(words []float64) int64                           { return c.inner.WireBytes(words) }

// TestAllGatherNamesMismatches: a payload that is not what the pattern was
// built for is an error that says so, never a sum. Each case runs rank 0 of
// two alone through WorkerRound against a payload deposited for it; rank 0's
// own payload is the first the sum reads.
func TestAllGatherNamesMismatches(t *testing.T) {
	const dim = 12
	vec := uglyVector(dim, 1)
	sparseWords := func(d int) []float64 {
		w, err := NewTopK(3, d, false).Encode(RoundContext{}, uglyVector(d, 2))
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), w...)
	}
	qsgdWords, err := NewQSGDCodec(4, 1).Encode(RoundContext{}, vec)
	if err != nil {
		t.Fatal(err)
	}
	outOfRange := sparseWords(dim)
	outOfRange[2] = dim // first index

	for _, tc := range []struct {
		name  string
		pat   AllGather
		own   Codec
		peer  []float64
		cause string
	}{
		{"sparse all-gather, own QSGD words", AllGather{Sparse: true}, NewQSGDCodec(4, 1), sparseWords(dim), "sparse all-gather: payload of rank 0"},
		{"sparse all-gather, peer QSGD words", AllGather{Sparse: true}, NewTopK(3, dim, false), qsgdWords, "sparse all-gather: payload of rank 1"},
		{"qsgd all-gather, own sparse words", AllGather{Levels: 4}, NewTopK(3, dim, false), qsgdWords, "qsgd all-gather: payload of rank 0 has 8 words, want 13"},
		{"qsgd all-gather, peer sparse words", AllGather{Levels: 4}, NewQSGDCodec(4, 1), sparseWords(dim), "qsgd all-gather: payload of rank 1 has 8 words, want 13"},
		{"qsgd all-gather, peer of another dimension", AllGather{Levels: 4}, NewQSGDCodec(4, 1), append([]float64{1}, make([]float64, dim+1)...), "payload of rank 1 has 14 words, want 13"},
		{"decoding all-gather, own sparse words", AllGather{}, wireOnlyCodec{NewTopK(3, dim, false)}, sparseWords(dim), "payload of rank 0 decodes to 8 values, want 12"},
		{"decoding all-gather, peer sparse words", AllGather{}, Dense{}, sparseWords(dim), "payload of rank 1 decodes to 8 values, want 12"},
		{"dimension", AllGather{Sparse: true}, NewTopK(3, dim, false), sparseWords(dim + 1), "dimension 13 added to 12 values"},
		{"index", AllGather{Sparse: true}, NewTopK(3, dim, false), outOfRange, "sparse index 12 out of 12"},
	} {
		hub := memtransport.NewHub(2)
		if err := hub.Send(0, 1, 0, tc.peer); err != nil {
			t.Fatal(err)
		}
		node := &sumNode{outs: [][]float64{vec}}
		ctx := RoundContext{Self: 0, N: 2}
		// Rank 1's codec is the identity: a mismatch is about the words.
		_, err := WorkerRound(node, tc.pat, []Codec{tc.own, Dense{}}, hub, new(PhaseState), ctx)
		if err == nil || !strings.Contains(err.Error(), tc.cause) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.cause)
		}
		if len(node.got) != 0 {
			t.Errorf("%s: a sum was delivered", tc.name)
		}
	}
	if err := AddSparse(make([]float64, 4), []float64{4, 2, 1}); err == nil || !strings.Contains(err.Error(), "k=2 with 3 words") {
		t.Errorf("truncated sparse words: error %v", err)
	}
}

// countingCodec counts decodes from outside the codec the way
// benchmark/trace.go times them: a struct that embeds the forwarding wrapper
// and gains DecodeInto only when the inner codec has it. A shortcut keyed on
// the codec's concrete type or on a new optional interface would fall back
// under it, and the counts below would say so.
type countingCodec struct {
	inner   Codec
	decodes *atomic.Int64
}

func (c countingCodec) Name() string                    { return c.inner.Name() }
func (c countingCodec) WireBytes(words []float64) int64 { return c.inner.WireBytes(words) }
func (c countingCodec) Encode(ctx RoundContext, dense []float64) ([]float64, error) {
	return c.inner.Encode(ctx, dense)
}
func (c countingCodec) Decode(ctx RoundContext, words []float64) ([]float64, error) {
	c.decodes.Add(1)
	return c.inner.Decode(ctx, words)
}

type countingInto struct {
	into    DecoderInto
	decodes *atomic.Int64
}

func (d countingInto) DecodeInto(dst []float64, ctx RoundContext, words []float64) ([]float64, error) {
	d.decodes.Add(1)
	return d.into.DecodeInto(dst, ctx, words)
}

func wrapCounting(c Codec, decodes *atomic.Int64) Codec {
	cc := countingCodec{c, decodes}
	if into, ok := c.(DecoderInto); ok {
		return struct {
			countingCodec
			countingInto
		}{cc, countingInto{into, decodes}}
	}
	return cc
}

// copyingHub deposits a copy, as a socket would (WorkerRound's contract).
type copyingHub struct{ *memtransport.Hub }

func (h copyingHub) Send(round, self, peer int, payload []float64) error {
	return h.Hub.Send(round, self, peer, append([]float64(nil), payload...))
}

// TestAllGatherDecodesNothing: an all-gather whose pattern knows its words —
// QSGD (Levels) or sparse — sums them without a single decode, on the engine
// at either shard count and in a fleet of one-rank processes, each with its
// own codec table and phase state as a TCP worker builds them, through the
// benchmark's kind of wrapper. The decoding path is the control: the same
// wrapper counts its n² engine decodes and n per worker. Every rank of every
// run merges the same bits.
func TestAllGatherDecodesNothing(t *testing.T) {
	const n, dim, rounds = 6, 64, 3
	outs := make([][][]float64, n)
	for r := range outs {
		for round := 0; round < rounds; round++ {
			outs[r] = append(outs[r], uglyVector(dim, uint64(r*rounds+round)+11))
		}
	}
	qsgd := func(r int) Codec { return NewQSGDCodec(16, uint64(r)+1) }
	for _, tc := range []struct {
		name   string
		pat    AllGather
		codec  func(rank int) Codec
		engine int64 // decodes per engine round
		worker int64 // decodes per worker round
	}{
		{"qsgd", AllGather{Levels: 16}, qsgd, 0, 0},
		{"topk", AllGather{Sparse: true}, func(int) Codec { return NewTopK(6, dim, true) }, 0, 0},
		{"qsgd-decoded", AllGather{}, qsgd, n * n, n},
	} {
		table := func(decodes *atomic.Int64) []Codec {
			cs := make([]Codec, n)
			for r := range cs {
				cs[r] = wrapCounting(tc.codec(r), decodes)
			}
			return cs
		}
		var ref [][][]float64
		for _, shards := range []int{1, 2} {
			var decodes atomic.Int64
			got, _ := gatherRun(t, tc.pat, outs, table(&decodes), shards)
			if d := decodes.Load(); d != tc.engine*rounds {
				t.Errorf("%s shards=%d: %d decodes in %d rounds, want %d a round", tc.name, shards, d, rounds, tc.engine)
			}
			for r := range got {
				for round := range got[r] {
					sameBits(t, fmt.Sprintf("%s shards=%d rank %d round %d", tc.name, shards, r, round), got[r][round], got[0][round])
				}
			}
			ref = got
		}

		// One process per rank: its own codec table and phase state.
		hub := copyingHub{memtransport.NewHub(n)}
		counts := make([]atomic.Int64, n)
		nodes := make([]*sumNode, n)
		errs := make(chan error, n)
		for r := 0; r < n; r++ {
			nodes[r] = &sumNode{outs: outs[r]}
			go func(r int) {
				codecs, st := table(&counts[r]), new(PhaseState)
				for round := 0; round < rounds; round++ {
					ctx := RoundContext{Round: round, Self: r, N: n, Plan: core.RoundPlan{Round: round}}
					if _, err := WorkerRound(nodes[r], tc.pat, codecs, hub, st, ctx); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(r)
		}
		for r := 0; r < n; r++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < n; r++ {
			if d := counts[r].Load(); d != tc.worker*rounds {
				t.Errorf("%s worker %d: %d decodes in %d rounds, want %d a round", tc.name, r, d, rounds, tc.worker)
			}
			for round := 0; round < rounds; round++ {
				sameBits(t, fmt.Sprintf("%s worker %d round %d", tc.name, r, round), nodes[r].got[round], ref[0][round])
			}
		}
	}
}
