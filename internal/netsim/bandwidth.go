// Package netsim models the communication fabric between workers: pairwise
// bandwidth matrices (including the paper's measured 14-city matrix of
// Fig. 1), the threshold filtering of Algorithm 1, and the byte/time Ledger
// that accounts for every message of a synchronous round. It also holds the
// virtual-time event queue and log that the engine's barrier-free driver
// (engine.NewAsync), the one event simulator, runs on.
package netsim

import (
	"fmt"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/rng"
)

// Bandwidth holds a symmetric pairwise bandwidth environment in MB/s. As in
// the paper (§II-C), the effective bandwidth of a link is the minimum of the
// two directions: B_ij = B_ji = min(B_ij, B_ji).
//
// Whatever the fleet size, the links are stored once, in a CSR adjacency
// layout over both directions: a pair with no stored link reads 0 MB/s, so a
// 50k-node degree-8 environment costs O(E) floats, and a complete graph 12
// bytes per directed link. Callers that must scale iterate links via
// ForEachEdge/AppendEdges rather than probing all N² pairs.
type Bandwidth struct {
	N int
	// Row i's neighbours are nbr[off[i]:off[i+1]], ascending, with the link
	// speeds in the parallel wts; off has N+1 entries.
	off []int
	nbr []int32
	wts []float64
	// rev counts the in-place rewrites of wts; RoundEnv.rewrite is the one
	// writer of a built environment.
	rev uint64
}

// NewBandwidth builds a symmetric Bandwidth from a possibly asymmetric
// matrix of link speeds in MB/s, applying the min() symmetrization; a pair
// whose slower direction is not positive has no link.
func NewBandwidth(raw [][]float64) *Bandwidth {
	n := len(raw)
	for i := range raw {
		if len(raw[i]) != n {
			panic(fmt.Sprintf("netsim: row %d has %d entries, want %d", i, len(raw[i]), n))
		}
	}
	return complete(n, func(i, j int) float64 { return min(raw[i][j], raw[j][i]) })
}

// complete builds an environment from one speed per unordered pair, asked
// for in lexicographic i < j order (the order generators draw in).
func complete(n int, speed func(i, j int) float64) *Bandwidth {
	edges := make([]graph.WeightedEdge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.WeightedEdge{U: i, V: j, Weight: speed(i, j)})
		}
	}
	return NewSparseBandwidth(n, edges)
}

// lowerBound returns the first slot of row i whose neighbour is at least j.
func (b *Bandwidth) lowerBound(i, j int) int {
	lo, hi := b.off[i], b.off[i+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(b.nbr[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Revision counts the times the link speeds were rewritten in place since b
// was built (each jittered or traced RoundEnv.Tick is one). While it holds,
// every MBps, ForEachEdge and AppendEdges answer is unchanged, so a caller
// that keeps what it derived from them compares Revisions instead of
// re-reading the links.
func (b *Bandwidth) Revision() uint64 { return b.rev }

// Rows returns the links as a read-only CSR view sharing b's storage, which
// the planner's graph.Candidates.LoadRows reads in place. An in-place
// rewrite (a RoundEnv Tick) shows through it; the topology never changes.
func (b *Bandwidth) Rows() graph.Rows { return graph.Rows{Off: b.off, Nbr: b.nbr, W: b.wts} }

// MBps returns the symmetric link bandwidth between workers i and j in
// megabytes per second (0 for i == j and for pairs with no link).
func (b *Bandwidth) MBps(i, j int) float64 {
	if k := b.lowerBound(i, j); k < b.off[i+1] && int(b.nbr[k]) == j {
		return b.wts[k]
	}
	return 0
}

// ForEachEdge calls fn for every link with positive bandwidth at least
// thresh, in lexicographic (u < v) order — AppendEdges's order, without
// allocating. Each link is visited from its lower endpoint's row only, so a
// walk costs O(E), not O(N²).
func (b *Bandwidth) ForEachEdge(thresh float64, fn func(u, v int, w float64)) {
	for u := 0; u < b.N; u++ {
		for k := b.lowerBound(u, u+1); k < b.off[u+1]; k++ {
			if w := b.wts[k]; w >= thresh && w > 0 {
				fn(u, int(b.nbr[k]), w)
			}
		}
	}
}

// AppendEdges appends every link with bandwidth at least thresh to dst as
// weighted edges (weight = bandwidth in MB/s, U < V), reusing its capacity,
// and returns the extended slice.
func (b *Bandwidth) AppendEdges(dst []graph.WeightedEdge, thresh float64) []graph.WeightedEdge {
	b.ForEachEdge(thresh, func(u, v int, w float64) {
		dst = append(dst, graph.WeightedEdge{U: u, V: v, Weight: w})
	})
	return dst
}

// MeanBandwidth returns the mean over all N(N-1) ordered off-diagonal pairs
// (a pair with no link counts as 0).
func (b *Bandwidth) MeanBandwidth() float64 {
	if b.N < 2 {
		return 0
	}
	sum := 0.0
	for _, w := range b.wts {
		sum += w
	}
	return sum / (float64(b.N) * float64(b.N-1))
}

// Cities lists the 14 data-center locations of Fig. 1, in matrix order.
var Cities = []string{
	"AliBeijing", "AliShanghai", "AliShenzhen", "AliZhangjiakou",
	"AmaColumbus", "AmaDublin", "AmaFrankfurtamMain", "AmaLondon",
	"AmaMontreal", "AmaMumbai", "AmaParis", "AmaPortland",
	"AmaSanFrancisco", "AmaSaoPaulo",
}

// fig1Mbits is the measured inter-city network speed matrix of Fig. 1 in
// Mbits/s, transcribed from the paper (rows/columns ordered as Cities;
// diagonal entries were reported as NaN and are stored as 0 here).
var fig1Mbits = [14][14]float64{
	{0, 1.3, 1.5, 1.2, 1.6, 1.6, 1.5, 1.6, 1.7, 1.4, 1.7, 1.5, 1.6, 1.5},
	{1.3, 0, 1.5, 1.2, 1.5, 1.5, 1.5, 1.6, 1.5, 1.2, 1.5, 1.5, 1.4, 1.6},
	{1.4, 1.3, 0, 1.3, 1.5, 1.6, 1.4, 1.7, 1.3, 1.6, 1.7, 1.4, 1.6, 1.4},
	{1.2, 1.3, 1.4, 0, 1.5, 1.4, 1.5, 1.5, 1.5, 1.2, 1.5, 1.6, 1.6, 1.6},
	{11.0, 2.2, 27.7, 6.8, 0, 82.5, 73.1, 82.2, 132.5, 49.1, 69.5, 84.8, 98.0, 57.4},
	{6.8, 1.1, 20.2, 4.7, 82.6, 0, 129.2, 269.2, 78.3, 73.3, 147.1, 50.3, 54.4, 37.0},
	{27.3, 1.1, 15.1, 21.8, 83.2, 184.8, 0, 331.2, 86.4, 76.8, 261.1, 62.4, 70.6, 42.3},
	{0.2, 13.9, 27.6, 14.8, 60.8, 195.3, 276.2, 0, 63.3, 75.4, 323.1, 50.3, 62.6, 39.8},
	{0.2, 16.9, 5.7, 1.1, 166.8, 83.9, 64.0, 61.6, 0, 40.7, 54.0, 80.4, 65.9, 39.1},
	{36.2, 27.4, 1.7, 22.0, 37.5, 48.6, 54.7, 50.0, 35.8, 0, 45.0, 33.5, 39.0, 22.5},
	{36.0, 0.6, 16.8, 21.1, 27.9, 115.1, 247.8, 317.4, 51.6, 47.5, 0, 48.1, 36.8, 24.4},
	{15.6, 28.6, 10.6, 8.1, 94.8, 45.4, 43.8, 46.3, 70.4, 27.0, 45.8, 0, 172.9, 39.4},
	{2.3, 3.9, 22.5, 5.7, 78.3, 45.6, 32.7, 34.5, 47.3, 23.2, 23.7, 134.5, 0, 31.2},
	{0.1, 15.1, 8.2, 15.4, 41.8, 32.7, 39.9, 37.9, 59.6, 25.0, 38.4, 38.2, 39.9, 0},
}

// FourteenCities returns the Fig. 1 bandwidth matrix converted to MB/s
// (Mbits/s ÷ 8) and min()-symmetrized — the 14-worker environment of the
// paper's bandwidth-utilization experiment (Fig. 5a).
func FourteenCities() *Bandwidth {
	return complete(14, func(i, j int) float64 { return min(fig1Mbits[i][j]/8, fig1Mbits[j][i]/8) })
}

// RandomUniform returns an n-worker environment whose pairwise bandwidths
// are drawn uniformly from (lo, hi] MB/s, as in the paper's 32-worker
// environment ((0, 5] MB/s, Fig. 5b). The draw is symmetric by construction.
func RandomUniform(n int, lo, hi float64, r *rng.Source) *Bandwidth {
	return complete(n, func(_, _ int) float64 {
		return lo + float64((hi-lo)*(1-float64(r.Float64()))) // (lo, hi]
	})
}

// Clustered returns an environment with dense fast links inside clusters and
// slow links across them — a synthetic stand-in for multi-region
// deployments, used by ablation benches.
func Clustered(n, clusters int, fast, slow float64, r *rng.Source) *Bandwidth {
	return complete(n, func(i, j int) float64 {
		base := slow
		if i%clusters == j%clusters {
			base = fast
		}
		return base * (0.5 + float64(r.Float64())) // ±50% jitter
	})
}
