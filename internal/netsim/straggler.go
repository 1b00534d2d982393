package netsim

import "fmt"

// Scaled returns a copy of b with every link that touches one of the given
// workers divided by factor — the bandwidth-straggler model: a straggling
// worker drags down all of its links, and a link between two stragglers is
// divided once (not twice). factor must be ≥ 1 and the matrix stays
// symmetric by construction.
func (b *Bandwidth) Scaled(workers []int, factor float64) *Bandwidth {
	if factor < 1 {
		panic(fmt.Sprintf("netsim: straggler factor %v < 1", factor))
	}
	slow := make([]bool, b.N)
	for _, w := range workers {
		if w < 0 || w >= b.N {
			panic(fmt.Sprintf("netsim: straggler rank %d of %d", w, b.N))
		}
		slow[w] = true
	}
	// Topology is immutable — share it; only the weights fork.
	out := &Bandwidth{N: b.N, off: b.off, nbr: b.nbr, wts: append([]float64(nil), b.wts...)}
	for u := 0; u < b.N; u++ {
		for k := b.off[u]; k < b.off[u+1]; k++ {
			if slow[u] || slow[b.nbr[k]] {
				out.wts[k] /= factor
			}
		}
	}
	return out
}
