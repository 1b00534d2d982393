package compress

import "sync"

// MaskCache shares one round mask across every rank of an in-process fleet.
// The mask is a pure function of (seed, round, n, c), and the engine's round
// barrier means all ranks ask for the same key within a round — so a single
// cached entry turns N per-rank mask buffers into one fleet-wide buffer of
// positions plus one MaskIndices evaluation per round.
//
// Get is safe for concurrent use. The returned slice is shared and must be
// treated as read-only; it stays valid until the key changes *twice* (the
// cache double-buffers, so the previous generation's slice is never
// overwritten while a barrier-lagged reader could still hold it).
type MaskCache struct {
	mu    sync.Mutex
	seed  uint64
	round int
	n     int
	c     float64
	cur   []int32
	prev  []int32 // retired generation, reused as scratch on the next miss
}

// Get returns the shared mask positions for (seed, round, n, c), recomputing
// them only when the key differs from the cached one.
func (mc *MaskCache) Get(seed uint64, round, n int, c float64) []int32 {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.cur != nil && mc.seed == seed && mc.round == round && mc.n == n && mc.c == c {
		return mc.cur
	}
	mc.cur, mc.prev = MaskIndices(mc.prev, seed, round, n, c), mc.cur
	mc.seed, mc.round, mc.n, mc.c = seed, round, n, c
	return mc.cur
}
