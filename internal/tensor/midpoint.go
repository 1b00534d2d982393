package tensor

// Midpoint sets x[j] = 0.5·(x[j] + v[j]) for every j, in place: the
// pairwise average of a gossip rendezvous. The sum rounds once and the
// halving once, as in the scalar loop below, which stays as the definition
// of every bit, the fallback on other platforms and the whole path under
// the purego build tag; midpoint_amd64.s runs the same two roundings eight
// words a pass (VADDPD, then VMULPD by 0.5, never a fused multiply-add). It
// panics if lengths differ.
func Midpoint(x, v []float64) {
	assertSameLen(len(x), len(v))
	midpoint(x, v)
}

// midpointGeneric is Midpoint's scalar loop.
func midpointGeneric(x, v []float64) {
	v = v[:len(x)]
	for j, w := range v {
		x[j] = 0.5 * (x[j] + w)
	}
}
