package netsim

import (
	"fmt"
	"sort"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/rng"
)

// NewSparseBandwidth builds an environment over n workers from an explicit
// undirected edge list. Edges must connect distinct in-range vertices and be
// unique as unordered pairs; an edge whose weight is not positive is dropped
// (a zero link is indistinguishable from an absent one everywhere in the
// API).
func NewSparseBandwidth(n int, edges []graph.WeightedEdge) *Bandwidth {
	if n < 0 {
		panic(fmt.Sprintf("netsim: negative worker count %d", n))
	}
	b := &Bandwidth{N: n, off: make([]int, n+1)}
	for _, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			panic(fmt.Sprintf("netsim: bad sparse edge (%d,%d) over %d workers", e.U, e.V, n))
		}
		if e.Weight > 0 {
			b.off[e.U+1]++
			b.off[e.V+1]++
		}
	}
	for i := 0; i < n; i++ {
		b.off[i+1] += b.off[i]
	}
	b.nbr = make([]int32, b.off[n])
	b.wts = make([]float64, b.off[n])
	// Counting fill: each edge lands in the next free slot of both endpoint
	// rows. An edge list in lexicographic u < v order (the complete-graph
	// generators) fills every row already ascending, so only rows that
	// arrive unsorted (the random topologies) pay for a sort.
	next := append([]int(nil), b.off[:n]...)
	put := func(u, v int, w float64) {
		b.nbr[next[u]], b.wts[next[u]] = int32(v), w
		next[u]++
	}
	for _, e := range edges {
		if e.Weight > 0 {
			put(e.U, e.V, e.Weight)
			put(e.V, e.U, e.Weight)
		}
	}
	row := &rowSorter{}
	for u := 0; u < n; u++ {
		row.nbr, row.wts = b.nbr[b.off[u]:b.off[u+1]], b.wts[b.off[u]:b.off[u+1]]
		if !sort.IsSorted(row) {
			sort.Sort(row)
		}
		for k := 1; k < len(row.nbr); k++ {
			if row.nbr[k] == row.nbr[k-1] {
				panic(fmt.Sprintf("netsim: duplicate sparse edge (%d,%d)", u, row.nbr[k]))
			}
		}
	}
	return b
}

// rowSorter orders one CSR row by neighbour, carrying the weights along.
type rowSorter struct {
	nbr []int32
	wts []float64
}

func (r *rowSorter) Len() int           { return len(r.nbr) }
func (r *rowSorter) Less(i, j int) bool { return r.nbr[i] < r.nbr[j] }
func (r *rowSorter) Swap(i, j int) {
	r.nbr[i], r.nbr[j] = r.nbr[j], r.nbr[i]
	r.wts[i], r.wts[j] = r.wts[j], r.wts[i]
}

// sparseTopology draws a connected random topology: a Hamiltonian ring
// guarantees connectivity, then random chords are added until the mean
// degree reaches degree. weight is called once per accepted edge, in
// acceptance order, so equal seeds give identical environments.
func sparseTopology(n, degree int, r *rng.Source, weight func(u, v int) float64) *Bandwidth {
	if n < 3 {
		panic(fmt.Sprintf("netsim: sparse topology needs n >= 3, got %d", n))
	}
	if degree < 2 || degree >= n {
		panic(fmt.Sprintf("netsim: sparse degree %d outside [2, %d]", degree, n-1))
	}
	target := n * degree / 2
	seen := make(map[uint64]bool, target)
	edges := make([]graph.WeightedEdge, 0, target)
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			return false
		}
		seen[key] = true
		edges = append(edges, graph.WeightedEdge{U: u, V: v, Weight: weight(u, v)})
		return true
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	// Chords: rejection-sample pairs; cap the attempts so pathological
	// degree targets terminate (the edge count then lands below target).
	for tries, budget := 0, 100*(target-len(edges)+1); len(edges) < target && tries < budget; tries++ {
		add(r.Intn(n), r.Intn(n))
	}
	return NewSparseBandwidth(n, edges)
}

// SparseRandomUniform is RandomUniform's degree-limited counterpart: a
// connected random topology of mean degree `degree` whose link speeds are
// drawn uniformly from (lo, hi] MB/s. Only those links exist — all other
// pairs read 0 MB/s — so memory is O(n·degree), never O(n²).
func SparseRandomUniform(n, degree int, lo, hi float64, r *rng.Source) *Bandwidth {
	if lo < 0 || hi <= 0 || hi < lo {
		panic(fmt.Sprintf("netsim: bad uniform range (%v, %v]", lo, hi))
	}
	return sparseTopology(n, degree, r, func(_, _ int) float64 {
		return lo + float64((hi-lo)*(1-float64(r.Float64()))) // (lo, hi]
	})
}

// SparseClustered is Clustered's degree-limited counterpart: same connected
// random topology as SparseRandomUniform, with intra-cluster links
// (i%clusters == j%clusters) drawn around fast MB/s and cross-cluster links
// around slow, both with ±50% jitter.
func SparseClustered(n, clusters, degree int, fast, slow float64, r *rng.Source) *Bandwidth {
	if clusters < 1 || fast <= 0 || slow <= 0 {
		panic(fmt.Sprintf("netsim: bad clustered profile (clusters=%d fast=%v slow=%v)", clusters, fast, slow))
	}
	return sparseTopology(n, degree, r, func(u, v int) float64 {
		base := slow
		if u%clusters == v%clusters {
			base = fast
		}
		return base * (0.5 + float64(r.Float64())) // ±50% jitter
	})
}
