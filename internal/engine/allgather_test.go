// Oracle, decode-count and mismatch tests for the AllGather pattern. This
// file is in package engine (not engine_test) because the oracle is a
// verbatim copy of the parent commit's choreography, which works on
// PhaseState's unexported scratch.
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

// denseOracleAllGather is the all-gather as commit 2d5fd2f had it, verbatim:
// phase 0 copies the rank's own decode into the accumulator, and
// oraclePhaseRecvSumAll expands every peer's payload to a dense vector with
// the sender's codec and adds all of it, zeros included. It is the reference
// the scatter-add and the published decodes must match bit for bit; it does
// not change when the pattern does.
type denseOracleAllGather struct{ AllGather }

func (denseOracleAllGather) RunPhase(ctx RoundContext, p int, node Node, codecs []Codec, tr Transport, st *PhaseState) error {
	switch p {
	case 0:
		loss, out, err := node.Compute(ctx)
		if err != nil {
			return err
		}
		st.Rep.Loss, st.Rep.Trained = loss, trained(loss)
		words, err := encodeTimed(codecs[ctx.Self], ctx, out)
		if err != nil {
			return err
		}
		st.Rep.PayloadLen = len(words)
		own, err := st.decodeScratch(codecs[ctx.Self], ctx, words)
		if err != nil {
			return err
		}
		st.vec = append(st.vec[:0], own...)
		st.sent = codecs[ctx.Self].WireBytes(words)
		return phaseSendAll(ctx, tr, words)
	case 1:
		if err := oraclePhaseRecvSumAll(ctx, codecs, tr, st, st.vec); err != nil {
			return err
		}
		return st.mergeOne(ctx, node, PeerMsg{From: -1, Vals: st.vec})
	}
	return nil
}

func oraclePhaseRecvSumAll(ctx RoundContext, codecs []Codec, tr Transport, st *PhaseState, vec []float64) error {
	for q := 0; q < ctx.N; q++ {
		if q == ctx.Self {
			continue
		}
		pw, err := tr.Recv(ctx.Round, ctx.Self, q)
		if err != nil {
			return err
		}
		vals, err := st.decodeScratch(codecs[q], ctx, pw)
		if err != nil {
			return err
		}
		if len(vals) != len(vec) {
			return fmt.Errorf("engine: all-gather payload of %d values, want %d", len(vals), len(vec))
		}
		st.Rep.Flows = append(st.Rep.Flows, Flow{Peer: q, Sent: st.sent, Recv: codecs[q].WireBytes(pw)})
		for j, v := range vals {
			vec[j] += v
		}
	}
	return nil
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

// TestAllGatherMatchesDenseOracle holds the pattern to the parent's
// zero-fill-and-add loop bit for bit: per-rank aggregates, flows and payload
// lengths, at every fleet size and shard count, for every codec an
// all-gather can carry and the inputs a shortcut gets wrong. The -0 rule
// rides on it: packSparse ships v + 0, so the oracle (which assigns a
// payload's values) and the scatter-add (which adds them to +0) see the same
// words and can only agree.
func TestAllGatherMatchesDenseOracle(t *testing.T) {
	const dim, rounds = 97, 3
	cases := []struct {
		name   string
		sparse bool
		codec  func(rank int) Codec
		salt   func(outs [][][]float64) // optional extra salting
	}{
		{"topk-ef", true, func(int) Codec { return NewTopK(8, dim, true) }, nil},
		{"topk", true, func(int) Codec { return NewTopK(8, dim, false) }, nil},
		// k above the nonzero count: the selection ships zeros of both signs.
		{"topk-zeros", true, func(int) Codec { return NewTopK(70, dim, false) }, nil},
		{"topk-ef-zeros", true, func(int) Codec { return NewTopK(70, dim, true) }, nil},
		{"randomk", true, func(r int) Codec { return NewRandomK(20, uint64(r)+3) }, nil},
		// A sparse codec on the dense path: decoded once, published, added densely.
		{"topk-decoded", false, func(int) Codec { return NewTopK(8, dim, true) }, nil},
		{"qsgd-1", false, func(r int) Codec { return NewQSGDCodec(1, uint64(r)+1) }, nil},
		{"qsgd-16", false, func(r int) Codec { return NewQSGDCodec(16, uint64(r)+1) }, nil},
		{"qsgd-zero-and-inf-norm", false, func(r int) Codec { return NewQSGDCodec(16, uint64(r)+1) }, func(outs [][][]float64) {
			for j := range outs[0][1] {
				outs[0][1][j] = 0 // rank 0, round 1: norm 0
			}
			last := len(outs) - 1
			outs[last][2][5] = math.Inf(1) // last rank, round 2: norm +Inf
		}},
		{"dense", false, func(int) Codec { return Dense{} }, nil},
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
				want, wantRep := gatherRun(t, denseOracleAllGather{}, outs, table(), shards)
				got, gotRep := gatherRun(t, NewAllGather(n, tc.sparse), outs, table(), shards)
				for r := 0; r < n; r++ {
					for round := 0; round < rounds; round++ {
						w, g := want[r][round], got[r][round]
						if len(w) != len(g) {
							t.Fatalf("%s n=%d shards=%d rank %d round %d: %d values, oracle has %d", tc.name, n, shards, r, round, len(g), len(w))
						}
						for j := range w {
							if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
								t.Fatalf("%s n=%d shards=%d rank %d round %d coord %d: %x (%v), oracle %x (%v)",
									tc.name, n, shards, r, round, j, math.Float64bits(g[j]), g[j], math.Float64bits(w[j]), w[j])
							}
						}
						wr, gr := wantRep[r][round], gotRep[r][round]
						if wr.PayloadLen != gr.PayloadLen || len(wr.Flows) != len(gr.Flows) {
							t.Fatalf("%s n=%d shards=%d rank %d round %d: report %+v, oracle %+v", tc.name, n, shards, r, round, gr, wr)
						}
						for i := range wr.Flows {
							if wr.Flows[i] != gr.Flows[i] {
								t.Fatalf("%s n=%d shards=%d rank %d round %d flow %d: %+v, oracle %+v", tc.name, n, shards, r, round, i, gr.Flows[i], wr.Flows[i])
							}
						}
					}
				}
			}
		}
	}

	// The summation order is part of the result: rank r adds its own payload
	// first and then the others in ascending rank, so with 1e16, 1 and -1e16
	// ranks 0 and 1 lose the 1 and rank 2 keeps it.
	order, _ := gatherRun(t, NewAllGather(3, false), [][][]float64{{{1e16}}, {{1}}, {{-1e16}}}, []Codec{Dense{}, Dense{}, Dense{}}, 2)
	if order[0][0][0] != 0 || order[1][0][0] != 0 || order[2][0][0] != 1 {
		t.Fatalf("aggregates %v %v %v: want 0 0 1 (own first, then ascending rank)", order[0][0], order[1][0], order[2][0])
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
// codecs do: the way to hand a dense all-gather sparse words.
type wireOnlyCodec struct{ inner Codec }

func (c wireOnlyCodec) Name() string { return "wire-only" }
func (c wireOnlyCodec) Encode(ctx RoundContext, dense []float64) ([]float64, error) {
	return c.inner.Encode(ctx, dense)
}
func (c wireOnlyCodec) Decode(_ RoundContext, words []float64) ([]float64, error) { return words, nil }
func (c wireOnlyCodec) WireBytes(words []float64) int64                           { return c.inner.WireBytes(words) }

// TestAllGatherNamesMismatches: a payload that is not what the pattern was
// built for is an error that says so, never a sum. Each case runs rank 0 of
// two alone through WorkerRound against a payload deposited for it.
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
		{"sparse all-gather, own QSGD words", NewAllGather(2, true), NewQSGDCodec(4, 1), sparseWords(dim), "sparse all-gather: own payload"},
		{"sparse all-gather, peer QSGD words", NewAllGather(2, true), NewTopK(3, dim, false), qsgdWords, "sparse all-gather: payload of rank 1"},
		{"dense all-gather, own sparse words", NewAllGather(2, false), wireOnlyCodec{NewTopK(3, dim, false)}, sparseWords(dim), "sparse or masked words on a dense all-gather"},
		{"dense all-gather, peer sparse words", NewAllGather(2, false), Dense{}, sparseWords(dim), "payload of rank 1 decodes to 8 values, want 12"},
		{"dimension", NewAllGather(2, true), NewTopK(3, dim, false), sparseWords(dim + 1), "dimension 13 added to 12 values"},
		{"index", NewAllGather(2, true), NewTopK(3, dim, false), outOfRange, "sparse index 12 out of 12"},
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

// TestAllGatherDecodesEachSenderOnce: on the engine a round of QSGD costs n
// decodes (each rank's own; n² at the parent) and a sparse round none, at
// either shard count and through the benchmark's kind of wrapper. A fleet of
// one-rank processes — each with its own pattern, as a TCP worker builds it —
// finds only its own entry and decodes every peer itself, n per worker, and
// reaches the same bits: the two ways a receiver gets q's vector agree.
func TestAllGatherDecodesEachSenderOnce(t *testing.T) {
	const n, dim, rounds = 6, 64, 3
	outs := make([][][]float64, n)
	for r := range outs {
		for round := 0; round < rounds; round++ {
			outs[r] = append(outs[r], uglyVector(dim, uint64(r*rounds+round)+11))
		}
	}
	for _, tc := range []struct {
		name   string
		sparse bool
		codec  func(rank int) Codec
		engine int64 // decodes per engine round
		worker int64 // decodes per worker round
	}{
		{"qsgd", false, func(r int) Codec { return NewQSGDCodec(16, uint64(r)+1) }, n, n},
		{"topk", true, func(int) Codec { return NewTopK(6, dim, true) }, 0, 0},
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
			got, _ := gatherRun(t, NewAllGather(n, tc.sparse), outs, table(&decodes), shards)
			if d := decodes.Load(); d != tc.engine*rounds {
				t.Errorf("%s shards=%d: %d decodes in %d rounds, want %d a round", tc.name, shards, d, rounds, tc.engine)
			}
			ref = got
		}

		// One process per rank: its own codec table, pattern and phase state.
		hub := copyingHub{memtransport.NewHub(n)}
		counts := make([]atomic.Int64, n)
		nodes := make([]*sumNode, n)
		errs := make(chan error, n)
		for r := 0; r < n; r++ {
			nodes[r] = &sumNode{outs: outs[r]}
			go func(r int) {
				codecs, pat, st := table(&counts[r]), NewAllGather(n, tc.sparse), new(PhaseState)
				for round := 0; round < rounds; round++ {
					ctx := RoundContext{Round: round, Self: r, N: n, Plan: core.RoundPlan{Round: round}}
					if _, err := WorkerRound(nodes[r], pat, codecs, hub, st, ctx); err != nil {
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
				for j, w := range ref[r][round] {
					if g := nodes[r].got[round][j]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s worker %d round %d coord %d: %v, the engine has %v", tc.name, r, round, j, g, w)
					}
				}
			}
		}
	}
}
