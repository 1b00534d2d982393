package dataset

import (
	"math"
	"testing"
)

// cover checks that shards partition the parent exactly: every sample index
// appears in exactly one shard. Samples are identified by their backing
// array, which partitioning aliases rather than copies.
func cover(t *testing.T, d *Dataset, shards []*Dataset) {
	t.Helper()
	seen := map[*float64]int{}
	total := 0
	for w, s := range shards {
		for k := range s.Samples {
			p := &s.Samples[k].X[0]
			if prev, dup := seen[p]; dup {
				t.Fatalf("sample in both shard %d and shard %d", prev, w)
			}
			seen[p] = w
			total++
		}
	}
	if total != len(d.Samples) {
		t.Fatalf("shards hold %d samples, parent has %d", total, len(d.Samples))
	}
	for i := range d.Samples {
		if _, ok := seen[&d.Samples[i].X[0]]; !ok {
			t.Fatalf("parent sample %d missing from every shard", i)
		}
	}
}

func TestPartitionDirichletCoversAndSkews(t *testing.T) {
	tr, _ := TinyTask(400, 4, 7)
	shards := PartitionDirichlet(tr, 8, 0.2, 10, 21)
	cover(t, tr, shards)
	for w, s := range shards {
		if s.Len() < 10 {
			t.Fatalf("shard %d has %d samples, floor is 10", w, s.Len())
		}
	}
	// With alpha = 0.2 the label marginals must be visibly non-uniform:
	// some shard's most-common class should dominate it well beyond the
	// parent's 1/classes share.
	maxShare := 0.0
	for _, s := range shards {
		h := labelHistogram(s)
		top := 0
		for _, c := range h {
			if c > top {
				top = c
			}
		}
		if share := float64(top) / float64(s.Len()); share > maxShare {
			maxShare = share
		}
	}
	if maxShare < 0.5 {
		t.Fatalf("alpha=0.2 label skew too weak: max single-class share %v", maxShare)
	}
}

func TestPartitionQuantitySkewCoversAndSkews(t *testing.T) {
	tr, _ := TinyTask(400, 4, 7)
	shards := PartitionQuantitySkew(tr, 8, 0.3, 5, 33)
	cover(t, tr, shards)
	minLen, maxLen := math.MaxInt, 0
	for _, s := range shards {
		if s.Len() < minLen {
			minLen = s.Len()
		}
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if minLen < 5 {
		t.Fatalf("floor violated: smallest shard has %d", minLen)
	}
	if maxLen < 2*minLen {
		t.Fatalf("alpha=0.3 quantity skew too weak: sizes in [%d, %d]", minLen, maxLen)
	}
}

// TestNonIIDPartitionsDeterministic pins seed-determinism: the same seed
// reproduces the exact shard contents, a different seed does not.
func TestNonIIDPartitionsDeterministic(t *testing.T) {
	tr, _ := TinyTask(300, 4, 7)
	kinds := map[string]func(seed uint64) []*Dataset{
		"dirichlet": func(seed uint64) []*Dataset { return PartitionDirichlet(tr, 6, 0.4, 2, seed) },
		"qskew":     func(seed uint64) []*Dataset { return PartitionQuantitySkew(tr, 6, 0.4, 2, seed) },
	}
	for name, part := range kinds {
		a, b, other := part(5), part(5), part(6)
		same := true
		for w := range a {
			if len(a[w].Samples) != len(b[w].Samples) {
				t.Fatalf("%s: seed-5 reruns disagree on shard %d size", name, w)
			}
			for k := range a[w].Samples {
				if &a[w].Samples[k].X[0] != &b[w].Samples[k].X[0] {
					t.Fatalf("%s: seed-5 reruns disagree on shard %d sample %d", name, w, k)
				}
			}
			if len(a[w].Samples) != len(other[w].Samples) {
				same = false
			}
		}
		if same {
			sameContents := true
			for w := range a {
				for k := range a[w].Samples {
					if &a[w].Samples[k].X[0] != &other[w].Samples[k].X[0] {
						sameContents = false
					}
				}
			}
			if sameContents {
				t.Fatalf("%s: seeds 5 and 6 produced identical partitions", name)
			}
		}
	}
}

func TestPartitionFloorRebalances(t *testing.T) {
	tr, _ := TinyTask(64, 4, 7)
	// Extreme skew over many workers: without the floor some shards would
	// round to zero, which would panic the loader.
	shards := PartitionDirichlet(tr, 16, 0.05, 0, 9)
	cover(t, tr, shards)
	for w, s := range shards {
		if s.Len() < 1 {
			t.Fatalf("shard %d is empty", w)
		}
	}
}

// TestSkewedPartitionsAtExtremeAlpha: every α > 0 is a valid concentration.
// At α → 0 every Gamma draw of a class can underflow to 0 (seeds 1, 3, 7
// and 8 at α = 1e-3 do), and at α → ∞ the draws or their sum overflow; both
// must still assign every sample exactly once and keep the floor.
func TestSkewedPartitionsAtExtremeAlpha(t *testing.T) {
	kinds := map[string]func(d *Dataset, alpha float64, floor int, seed uint64) []*Dataset{
		"dirichlet": func(d *Dataset, alpha float64, floor int, seed uint64) []*Dataset {
			return PartitionDirichlet(d, 4, alpha, floor, seed)
		},
		"quantity": func(d *Dataset, alpha float64, floor int, seed uint64) []*Dataset {
			return PartitionQuantitySkew(d, 4, alpha, floor, seed)
		},
	}
	cases := []struct {
		alpha float64
		seeds []uint64
	}{
		{1e-300, []uint64{1, 2}},
		{1e-3, []uint64{1, 3, 7, 8}},
		{1e300, []uint64{1, 2}},
		{math.MaxFloat64, []uint64{1, 2}},
	}
	for name, part := range kinds {
		for _, c := range cases {
			for _, seed := range c.seeds {
				for _, floor := range []int{0, 20} {
					tr, _ := TinyTask(200, 10, seed)
					shards := part(tr, c.alpha, floor, seed)
					cover(t, tr, shards)
					for w, s := range shards {
						if s.Len() < max(floor, 1) {
							t.Errorf("%s α=%g seed %d: shard %d has %d samples, floor %d", name, c.alpha, seed, w, s.Len(), floor)
						}
					}
				}
			}
		}
	}
}

func TestNonIIDPartitionPanics(t *testing.T) {
	tr, _ := TinyTask(10, 2, 23)
	for _, bad := range []func(){
		func() { PartitionDirichlet(tr, 0, 1, 1, 1) },
		func() { PartitionDirichlet(tr, 4, 0, 1, 1) },
		func() { PartitionDirichlet(tr, 4, 1, 5, 1) }, // 4×5 > 10 samples
		func() { PartitionQuantitySkew(tr, 0, 1, 1, 1) },
		func() { PartitionQuantitySkew(tr, 4, -1, 1, 1) },
		func() { PartitionQuantitySkew(tr, 11, 1, 1, 1) }, // floor 1 × 11 > 10
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}
