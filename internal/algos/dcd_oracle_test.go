package algos

import (
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// oracleDCDMerge is dcdNode.Merge from before deltas reached it as wire
// words, verbatim: each message's Vals — the top-k delta expanded to N values
// with zeros off its support — is added to the sender's replica by Axpy. It
// is the reference the sparse add must match bit for bit; it does not change
// when the node does.
func oracleDCDMerge(n *dcdNode, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		e := n.row.find(m.From)
		if e == nil {
			return fmt.Errorf("algos: DCD node received delta from non-neighbor %d", m.From)
		}
		tensor.Axpy(1, m.Vals, e.replica)
	}
	return nil
}

// signedVector is a seeded vector salted with +0 and −0 (half of it, so a
// large top-k selects zeros of both signs), and repeated magnitudes of both
// signs. With noNegZero set its −0s are +0, as a replica's are.
func signedVector(dim int, seed uint64, noNegZero bool) []float64 {
	x := make([]float64, dim)
	s := seed*2654435761 + 1
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		v := float64(int64(s>>33)) / float64(1<<31)
		switch (s >> 20) % 8 {
		case 0, 1:
			v = 0
		case 2, 3:
			v = math.Copysign(0, -1)
		case 4:
			v = math.Copysign(0.25, v)
		}
		if noNegZero {
			v += 0
		}
		x[i] = v
	}
	return x
}

// TestDCDMergeMatchesExpandedOracle: a DCD node that adds each delta's wire
// words to the replica (engine.AddSparse) ends every round on the bits of
// the expand-and-Axpy merge, for a delta of a few entries and for one whose
// top-k reaches into zeros of both signs. The only input where the two part
// is a replica holding −0 off a delta's support (−0 + +0 = +0 under the
// expanded add); replicas start from a model and only ever take sums, so
// none holds one, and the last check states the exception.
func TestDCDMergeMatchesExpandedOracle(t *testing.T) {
	const dim, rounds = 40, 6
	adj := ringAdjacency(5)
	for _, k := range []int{3, 32} {
		newNode := func() *dcdNode {
			row := metropolisRow(adj, 2)
			for i := range row {
				row[i].replica = signedVector(dim, uint64(row[i].rank)+1, true)
			}
			return &dcdNode{row: row}
		}
		got, want := newNode(), newNode()
		codecs := map[int]*engine.TopK{}
		for _, e := range got.row {
			codecs[e.rank] = engine.NewTopK(k, dim, false)
		}
		for round := 0; round < rounds; round++ {
			var sparse, expanded []engine.PeerMsg
			for _, e := range got.row {
				ctx := engine.RoundContext{Round: round, Self: e.rank}
				w, err := codecs[e.rank].Encode(ctx, signedVector(dim, uint64(round*10+e.rank)+100, false))
				if err != nil {
					t.Fatal(err)
				}
				words := append([]float64(nil), w...)
				vals, err := codecs[e.rank].Decode(ctx, words)
				if err != nil {
					t.Fatal(err)
				}
				sparse = append(sparse, engine.PeerMsg{From: e.rank, Words: words})
				expanded = append(expanded, engine.PeerMsg{From: e.rank, Vals: vals, Words: words})
			}
			if err := got.Merge(engine.RoundContext{Round: round, Self: 2}, sparse); err != nil {
				t.Fatal(err)
			}
			if err := oracleDCDMerge(want, expanded); err != nil {
				t.Fatal(err)
			}
			for i := range want.row {
				g, w := got.row[i].replica, want.row[i].replica
				for j := range w {
					if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
						t.Fatalf("k=%d round %d replica of %d coord %d: %v, oracle %v", k, round, want.row[i].rank, j, g[j], w[j])
					}
				}
			}
		}
	}

	// The exception, stated: −0 off the support survives the sparse add.
	negZero := math.Copysign(0, -1)
	node := &dcdNode{row: mixRow{{rank: 0, replica: []float64{negZero, 1}}}}
	if err := node.Merge(engine.RoundContext{}, []engine.PeerMsg{{From: 0, Words: []float64{2, 1, 1, 0.5}}}); err != nil {
		t.Fatal(err)
	}
	if r := node.row[0].replica; !math.Signbit(r[0]) || r[1] != 1.5 {
		t.Fatalf("replica %v after a delta on coordinate 1: want [-0 1.5]", r)
	}
}

// oracleDCDMix is dcdNode.Compute's mix one coordinate at a time, as it was
// before the blocks: the gossip over the row's neighbours in row order from
// +0, the step, then the difference by tensor.Sub. It does not change when
// the node does.
func oracleDCDMix(row mixRow, rank int, lr float64, x, grads []float64) []float64 {
	self := row.find(rank).replica
	for j := range x {
		gossip := 0.0
		for k := range row {
			if e := &row[k]; e.rank != rank {
				gossip += float64(e.w * (e.replica[j] - self[j]))
			}
		}
		x[j] += gossip - float64(lr*grads[j])
	}
	diff := make([]float64, len(x))
	tensor.Sub(diff, x, self)
	return diff
}

// oracleNeighborMix is neighborMixNode.Merge's mix as it was before the
// blocks: x = wₛ·p, then one Axpy per message in delivery order, then the
// gradient's Axpy, each a pass over the whole model.
func oracleNeighborMix(row mixRow, rank int, lr float64, params, grads, x []float64, msgs []engine.PeerMsg) {
	wSelf := row.find(rank).w
	for j, v := range params {
		x[j] = wSelf * v
	}
	for _, m := range msgs {
		tensor.Axpy(row.find(m.From).w, m.Vals, x)
	}
	tensor.Axpy(-lr, grads, x)
}

// mixTopologies are the rows the mix oracles run over: a ring of two (one
// neighbour), a ring of five (two) and the complete graph on five (four,
// with Metropolis weights that are not all equal to the self weight).
func mixTopologies() map[string][][]int {
	complete := make([][]int, 5)
	for i := range complete {
		for j := range complete {
			if j != i {
				complete[i] = append(complete[i], j)
			}
		}
	}
	return map[string][][]int{"ring2": ringAdjacency(2), "ring5": ringAdjacency(5), "complete5": complete}
}

// mixVector is a seeded vector of normals spread over many binades, so that
// reordering any sum over it changes low bits.
func mixVector(dim int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, dim)
	for i := range v {
		v[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(24)-12))
	}
	return v
}

// sameMixBits fails at the first coordinate whose bits differ.
func sameMixBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: coordinate %d of %d is %v, oracle %v", what, j, len(want), got[j], want[j])
		}
	}
}

// mixLengths straddle the block: shorter than one, one exactly, and lengths
// that end a block early or one past.
var mixLengths = []int{1, mixBlock - 1, mixBlock, mixBlock + 1, 3*mixBlock + 37}

// TestDCDMixMatchesPerCoordinateOracle: dcdNode's blocked mix leaves the
// model and publishes the difference with the bits of the per-coordinate
// loop, for rows of one, two and four neighbours and lengths on and off the
// block, round after round on the same node, over normals and over vectors
// salted with zeros of both signs. Summing the gossip in reverse row order,
// or starting it from −0 instead of +0, fails it.
func TestDCDMixMatchesPerCoordinateOracle(t *testing.T) {
	const lr = 0.05
	for _, zeros := range []bool{false, true} {
		mixVector := mixVector
		if zeros {
			mixVector = func(dim int, seed uint64) []float64 { return signedVector(dim, seed, false) }
		}
		for name, adj := range mixTopologies() {
			for _, dim := range mixLengths {
				rank := len(adj) - 1
				row := metropolisRow(adj, rank)
				want := metropolisRow(adj, rank)
				for k := range row {
					row[k].replica = mixVector(dim, uint64(10*dim+row[k].rank))
					want[k].replica = append([]float64(nil), row[k].replica...)
				}
				node := &dcdNode{lr: lr, row: row}
				x := mixVector(dim, uint64(dim)+100)
				wantX := append([]float64(nil), x...)
				for round := 0; round < 3; round++ {
					grads := mixVector(dim, uint64(round*1000+dim)+7)
					diff := node.mix(rank, x, grads)
					wantDiff := oracleDCDMix(want, rank, lr, wantX, grads)
					what := fmt.Sprintf("%s dim %d round %d zeros %v", name, dim, round, zeros)
					sameMixBits(t, what+" model", x, wantX)
					sameMixBits(t, what+" difference", diff, wantDiff)
					// The replicas move between rounds, as Merge moves them.
					for k := range row {
						delta := mixVector(dim, uint64(round*77+k))
						tensor.Axpy(1, delta, row[k].replica)
						tensor.Axpy(1, delta, want[k].replica)
					}
				}
			}
		}
	}
}

// TestNeighborMixMatchesAxpyOracle: D-PSGD's blocked merge writes the
// model with the bits of one pass per term — wₛ·p, each message's Axpy in
// delivery order, the gradient's Axpy — for one, two and four neighbours
// and lengths on and off the block. Taking the messages in reverse, or the
// gradient step before them, fails it.
func TestNeighborMixMatchesAxpyOracle(t *testing.T) {
	const lr = 0.05
	for name, adj := range mixTopologies() {
		for _, hidden := range []int{1, 21, 64} { // 17, 257 and 773 parameters
			model := nn.NewMLP(6, []int{hidden}, 5, 3)
			dim := model.ParamCount()
			rank := 0
			node := &neighborMixNode{Trainer: &core.Trainer{Model: model}, lr: lr, row: metropolisRow(adj, rank)}
			x, grads := model.Flat()
			copy(x, mixVector(dim, uint64(dim)))
			copy(grads, mixVector(dim, uint64(dim)+1))
			node.params = model.FlatParams(node.params)
			var msgs []engine.PeerMsg
			for _, q := range adj[rank] {
				msgs = append(msgs, engine.PeerMsg{From: q, Vals: mixVector(dim, uint64(dim*10+q))})
			}
			want := make([]float64, dim)
			oracleNeighborMix(node.row, rank, lr, node.params, grads, want, msgs)
			if err := node.Merge(engine.RoundContext{Self: rank}, msgs); err != nil {
				t.Fatal(err)
			}
			sameMixBits(t, fmt.Sprintf("%s dim %d", name, dim), x, want)
		}
	}
}
