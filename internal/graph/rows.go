package graph

import "math"

// Rows is a read-only view of a symmetric weighted graph in CSR form: row
// u's neighbours are Nbr[Off[u]:Off[u+1]], ascending, with the link weights
// in the parallel W, and every link appears in both endpoints' rows with
// one weight (netsim.Bandwidth's storage). Candidates.LoadRows reads it in
// place: a planner that matches over a bandwidth environment every round
// builds no edge list.
type Rows struct {
	Off []int
	Nbr []int32
	W   []float64
}

// N returns the vertex count.
func (r Rows) N() int { return len(r.Off) - 1 }

// upper returns the first slot of row u whose neighbour is above u: row u's
// links in lexicographic (u < v) order start there.
func (r Rows) upper(u int) int {
	lo, hi := r.Off[u], r.Off[u+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(r.Nbr[mid]) <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RowFilter selects the links Candidates.LoadRows takes: those at least
// MinWeight and positive — netsim.Bandwidth.ForEachEdge's test — between two
// vertices Mask admits (nil admits every vertex) and, when Labels is
// non-nil, whose endpoints carry different labels. It is symmetric in the
// two endpoints.
type RowFilter struct {
	MinWeight float64
	Mask      []bool
	Labels    []int32
}

// admits reports whether the filter takes links at vertex u at all.
func (f *RowFilter) admits(u int) bool { return f.Mask == nil || f.Mask[u] }

// takes reports whether the filter takes the link (u, v) of weight w, for an
// admitted u.
func (f *RowFilter) takes(u, v int, w float64) bool {
	return w >= f.MinWeight && w > 0 && f.admits(v) && (f.Labels == nil || f.Labels[u] != f.Labels[v])
}

// RowRanks holds the greedy pass's bucket rank of every link of one
// environment, one uint16 per u < v slot, read off a single bucketTable fit
// to all the links' weights. A table fit to the whole set ranks each weight
// 1+top−weightBucket(w) (+Inf 0), and one fit to any subset ranks it the same
// up to a constant shift of its top: the order and the grouping of the
// weights are unchanged, so every subset a RowFilter selects scans in the
// order Candidates.Load's own table would give it. A caller whose environment is
// rewritten in place refits once per rewrite.
type RowRanks struct {
	table bucketTable
	rank  []uint16 // indexed by CSR slot; only the u < v slots are set
}

// Fit ranks the u < v slots of rows against a table fit to every weight.
func (rk *RowRanks) Fit(rows Rows) {
	lo, hi := math.MaxFloat64, 0.0
	for _, w := range rows.W {
		lo, hi = widen(lo, hi, w)
	}
	rk.table.fit(lo, hi)
	rk.rank = resize(rk.rank, len(rows.W))
	for u := 0; u < rows.N(); u++ {
		for k := rows.upper(u); k < rows.Off[u+1]; k++ {
			rk.rank[k] = uint16(rk.table.rank(rows.W[k]))
		}
	}
}

// LoadRows packs the links of rows that f takes, in lexicographic (u < v)
// order, ranked by rk (fit to rows), for a randomized scan, and returns how
// many it packed. The scan visits them in the order it visits
// Load(rows.N(), edges, true)'s words for the same links as a lexicographic
// edge list: only the rank values differ, by a shift that keeps their order.
func (c *Candidates) LoadRows(rows Rows, rk *RowRanks, f RowFilter) int {
	n := rows.N()
	checkVertices(n)
	c.n = n
	words := c.words[:0]
	ends := resize(c.ends, rk.table.ranks())
	clear(ends)
	for u := 0; u < n; u++ {
		if !f.admits(u) {
			continue
		}
		for k := rows.upper(u); k < rows.Off[u+1]; k++ {
			if v := int(rows.Nbr[k]); f.takes(u, v, rows.W[k]) {
				r := rk.rank[k]
				ends[r]++
				words = append(words, uint64(r)<<rankShift|uint64(u)<<vertexBits|uint64(v))
			}
		}
	}
	for r := 1; r < len(ends); r++ {
		ends[r] += ends[r-1]
	}
	c.words, c.ends = words, ends
	return len(words)
}

// adjacencyFromWords lays out the adjacency of the links c was loaded with
// by LoadRows in reusable storage — the headers, the per-vertex cursors and
// the backing array all lists alias — and returns all three (regrown if
// they were too small). Each vertex's list is its filtered row, ascending:
// the words are in lexicographic (u < v) order, so a vertex's lower
// neighbours land before its upper ones, each in ascending order, as
// NewFromEdges lays out the same links listed in that order. It costs
// O(n + words), not a second pass over the rows.
func adjacencyFromWords(c *Candidates, adj [][]int, pos, backing []int) ([][]int, []int, []int) {
	n := c.n
	pos = resize(pos, n+1)
	clear(pos)
	for _, w := range c.words {
		pos[w>>vertexBits&vertexMask+1]++
		pos[w&vertexMask+1]++
	}
	for v := 0; v < n; v++ {
		pos[v+1] += pos[v]
	}
	backing = resize(backing, 2*len(c.words))
	for _, w := range c.words {
		u, v := int(w>>vertexBits&vertexMask), int(w&vertexMask)
		backing[pos[u]] = v
		pos[u]++
		backing[pos[v]] = u
		pos[v]++
	}
	// pos[v] is now one past v's list, which starts where v-1's ends.
	adj = resize(adj, n)
	start := 0
	for v := range adj {
		adj[v] = backing[start:pos[v]:pos[v]]
		start = pos[v]
	}
	return adj, pos, backing
}

// LoadCandidates makes g the graph of the links c was loaded with by
// LoadRows, in g's own storage: the adjacency NewFromEdges builds from the
// same links listed in lexicographic order.
func (g *Graph) LoadCandidates(c *Candidates) {
	g.adj, g.pos, g.backing = adjacencyFromWords(c, g.adj, g.pos, g.backing)
	g.N = c.n
}
