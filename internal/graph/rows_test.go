package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sapspsgd/internal/rng"
)

// csrOf lays a duplicate-free edge list out as Rows, each row ascending and
// every link in both rows with one weight — netsim.Bandwidth's layout.
func csrOf(n int, edges []WeightedEdge) Rows {
	rows := make([][]WeightedEdge, n)
	for _, e := range edges {
		rows[e.U] = append(rows[e.U], e)
		rows[e.V] = append(rows[e.V], WeightedEdge{U: e.V, V: e.U, Weight: e.Weight})
	}
	r := Rows{Off: make([]int, 1, n+1)}
	for _, row := range rows {
		slices.SortFunc(row, func(a, b WeightedEdge) int { return a.V - b.V })
		for _, e := range row {
			r.Nbr = append(r.Nbr, int32(e.V))
			r.W = append(r.W, e.Weight)
		}
		r.Off = append(r.Off, len(r.Nbr))
	}
	return r
}

// rowLinks is the row loaders' definition written out over the links of
// rows: those f takes, as an edge list in lexicographic (u < v) order.
func rowLinks(rows Rows, f RowFilter) []WeightedEdge {
	var out []WeightedEdge
	for u := 0; u < rows.N(); u++ {
		for k := rows.Off[u]; k < rows.Off[u+1]; k++ {
			v, w := int(rows.Nbr[k]), rows.W[k]
			switch {
			case v < u, !(w >= f.MinWeight), !(w > 0):
			case f.Mask != nil && !(f.Mask[u] && f.Mask[v]):
			case f.Labels != nil && f.Labels[u] == f.Labels[v]:
			default:
				out = append(out, WeightedEdge{U: u, V: v, Weight: w})
			}
		}
	}
	return out
}

// rowWeight draws one link weight of the given profile. "wide" spreads the
// weights over about 400 buckets, far past maxThresholds; "specials" mixes
// +Inf, 0 and NaN into a narrow spread.
func rowWeight(profile string, r *rng.Source) float64 {
	switch profile {
	case "wide":
		return math.Pow(1.25, float64(400*(r.Float64()-0.5)))
	case "specials":
		switch r.Intn(8) {
		case 0:
			return math.Inf(1)
		case 1:
			return 0
		case 2:
			return math.NaN()
		}
	}
	return 0.5 + float64(4.5*r.Float64())
}

// TestRowLoadersMatchEdgeLoaders pins the row loaders to the edge-list
// loaders they replace in the planner. Over random CSR rows — sparse and
// dense, with +Inf, zero and NaN weights and with a spread wider than
// maxThresholds buckets — and under thresholds, vertex masks and component
// labels, the words scanOrder yields from Candidates.LoadRows (ranked by one
// RowRanks fit to every link) equal, rank bits masked off, those it yields
// from Candidates.Load over the same links as a lexicographic edge list, and
// leave the stream at the same draw; and Matcher.LoadCandidates and
// Graph.LoadCandidates lay out NewFromEdges's adjacency for that list from
// the loaded words.
func TestRowLoadersMatchEdgeLoaders(t *testing.T) {
	const wordMask = 1<<rankShift - 1
	var m, ref Matcher
	var c, want Candidates
	var g Graph
	var ranks RowRanks
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		for _, shape := range []struct {
			n, degree int
		}{{40, 6}, {64, 63}, {300, 8}} {
			for _, profile := range []string{"narrow", "wide", "specials"} {
				seen := map[[2]int]bool{}
				var edges []WeightedEdge
				for u := 0; u < shape.n; u++ {
					for k := 0; k < (shape.degree+1)/2; k++ {
						edges = addEdge(edges, seen, u, r.Intn(shape.n), r)
					}
				}
				for i := range edges {
					edges[i].Weight = rowWeight(profile, r)
				}
				rows := csrOf(shape.n, edges)
				ranks.Fit(rows)
				mask := make([]bool, shape.n)
				labels := make([]int32, shape.n)
				for v := range mask {
					mask[v] = r.Float64() < 0.7
					labels[v] = int32(r.Intn(3))
				}
				for _, f := range []RowFilter{
					{},
					{MinWeight: 1},
					{MinWeight: 2.5, Mask: mask},
					{Mask: mask, Labels: labels},
					{Labels: labels},
					{MinWeight: math.Inf(1)},
				} {
					what := fmt.Sprintf("seed %d n=%d degree %d %s filter{min %v mask %v labels %v}",
						seed, shape.n, shape.degree, profile, f.MinWeight, f.Mask != nil, f.Labels != nil)
					links := rowLinks(rows, f)
					if got := c.LoadRows(rows, &ranks, f); got != len(links) {
						t.Fatalf("%s: LoadRows packed %d words, the filter takes %d links", what, got, len(links))
					}
					want.Load(shape.n, links, true)
					rnd, refRnd := rng.New(seed), rng.New(seed)
					got, exp := m.scanOrder(&c, rnd), ref.scanOrder(&want, refRnd)
					if len(got) != len(exp) {
						t.Fatalf("%s: %d words scanned, want %d", what, len(got), len(exp))
					}
					for i := range exp {
						if got[i]&wordMask != exp[i]&wordMask {
							t.Fatalf("%s: scan position %d holds (%d,%d), the edge loader's (%d,%d)", what, i,
								got[i]>>vertexBits&vertexMask, got[i]&vertexMask, exp[i]>>vertexBits&vertexMask, exp[i]&vertexMask)
						}
					}
					sameStream(t, what, rnd, refRnd)

					wantAdj := NewFromEdges(shape.n, links).adj
					m.LoadCandidates(&c)
					g.LoadCandidates(&c)
					for v := range wantAdj {
						if !slices.Equal(m.solver.adj[v], wantAdj[v]) || !slices.Equal(g.adj[v], wantAdj[v]) {
							t.Fatalf("%s: vertex %d lists %v (matcher) and %v (graph), NewFromEdges %v",
								what, v, m.solver.adj[v], g.adj[v], wantAdj[v])
						}
					}
					if m.solver.n != shape.n || g.N != shape.n {
						t.Fatalf("%s: loaded %d (matcher) and %d (graph) vertices, want %d", what, m.solver.n, g.N, shape.n)
					}
				}
			}
		}
	}
}
