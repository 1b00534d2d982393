package algos

import (
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/engine"
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
