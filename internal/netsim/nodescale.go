package netsim

import "fmt"

// NodeScaledBandwidth scales every link of a base environment by per-node
// multipliers: link (u, v) runs at base speed times min(mult[u], mult[v]),
// the slower endpoint's uplink being the bottleneck. This is the trace
// replay's bandwidth model (fleettrace multipliers), layered on top of any
// base environment — including a DynamicBandwidth snapshot, whose in-place
// Tick the scaler observes because Apply rereads the base on every call.
//
// Like DynamicBandwidth, the snapshot pointer is stable: Apply rewrites the
// same *Bandwidth in place, so planners and ledgers constructed over
// Current() see the fresh speeds after every Apply without re-plumbing.
type NodeScaledBandwidth struct {
	base    *Bandwidth
	current *Bandwidth
}

// NewNodeScaledBandwidth wraps base; the initial snapshot carries unit
// multipliers (a copy of base).
func NewNodeScaledBandwidth(base *Bandwidth) *NodeScaledBandwidth {
	s := &NodeScaledBandwidth{base: base}
	s.Apply(nil)
	return s
}

// Apply rewrites the snapshot with the given per-node multipliers (nil means
// all ones). The returned pointer is the same *Bandwidth on every call; only
// its link speeds change.
func (s *NodeScaledBandwidth) Apply(mult []float64) *Bandwidth {
	n := s.base.N
	if mult != nil && len(mult) != n {
		panic(fmt.Sprintf("netsim: %d node multipliers for %d nodes", len(mult), n))
	}
	m := func(i int) float64 {
		if mult == nil {
			return 1
		}
		return mult[i]
	}
	cur := s.current
	if s.base.Sparse() {
		if cur == nil {
			// The topology (off/nbr) is shared with the base; only the
			// weights are rewritten.
			cur = &Bandwidth{N: n, off: s.base.off, nbr: s.base.nbr, wts: make([]float64, len(s.base.wts))}
		}
		// min(mult[u], mult[v]) is symmetric, so each directed entry can be
		// written independently without a reverse-edge index.
		for u := 0; u < n; u++ {
			mu := m(u)
			for k := s.base.off[u]; k < s.base.off[u+1]; k++ {
				mv := m(int(s.base.nbr[k]))
				if mv < mu {
					cur.wts[k] = s.base.wts[k] * mv
				} else {
					cur.wts[k] = s.base.wts[k] * mu
				}
			}
		}
		s.current = cur
		return cur
	}
	if cur == nil {
		cur = &Bandwidth{N: n, mbps: make([]float64, n*n)}
	}
	for i := 0; i < n; i++ {
		mi := m(i)
		for j := 0; j < n; j++ {
			if i == j {
				cur.mbps[i*n+j] = 0
				continue
			}
			mj := m(j)
			scale := mi
			if mj < mi {
				scale = mj
			}
			cur.mbps[i*n+j] = s.base.MBps(i, j) * scale
		}
	}
	s.current = cur
	return cur
}

// Current returns the latest snapshot.
func (s *NodeScaledBandwidth) Current() *Bandwidth { return s.current }
