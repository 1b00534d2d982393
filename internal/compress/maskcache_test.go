package compress

import (
	"slices"
	"sync"
	"testing"
)

// TestMaskCacheMatchesMaskInto pins the sharing contract: the cached
// positions are exactly the ones of a direct MaskInto evaluation (and a
// direct MaskIndices one) for every key, including after key changes.
func TestMaskCacheMatchesMaskInto(t *testing.T) {
	mc := &MaskCache{}
	keys := []struct {
		seed  uint64
		round int
		n     int
		c     float64
	}{
		{1, 0, 128, 4},
		{1, 1, 128, 4},
		{1, 1, 128, 4}, // repeat: must hit the cache
		{9, 1, 64, 2},
		{1, 1, 128, 4}, // back to an evicted key: must recompute correctly
	}
	for _, k := range keys {
		got := mc.Get(k.seed, k.round, k.n, k.c)
		if want := MaskIndices(nil, k.seed, k.round, k.n, k.c); !slices.Equal(got, want) {
			t.Fatalf("key %+v: %d positions, want %d", k, len(got), len(want))
		}
		bits := MaskInto(nil, k.seed, k.round, k.n, k.c)
		if CountOnes(bits) != len(got) {
			t.Fatalf("key %+v: %d positions, MaskInto has %d ones", k, len(got), CountOnes(bits))
		}
		for _, i := range got {
			if !bits[i] {
				t.Fatalf("key %+v: position %d is off in MaskInto", k, i)
			}
		}
	}
}

// TestMaskCacheHitReturnsSameSlice pins the memory contract: repeated hits
// return the same backing slice (no per-rank copies), and the previous
// generation's slice survives one key change (double buffering), so a
// barrier-lagged holder never observes a torn mask.
func TestMaskCacheHitReturnsSameSlice(t *testing.T) {
	mc := &MaskCache{}
	a := mc.Get(7, 0, 256, 4)
	b := mc.Get(7, 0, 256, 4)
	if &a[0] != &b[0] {
		t.Fatal("cache hit returned a different slice")
	}
	snapshot := append([]int32(nil), a...)
	mc.Get(7, 1, 256, 4) // advance one generation
	for i := range a {
		if a[i] != snapshot[i] {
			t.Fatal("previous generation was overwritten after one key change")
		}
	}
}

// TestMaskCacheConcurrent exercises the fleet access pattern: many rank
// goroutines asking for the same key at once, all receiving the identical
// correct mask (run with -race to check the locking).
func TestMaskCacheConcurrent(t *testing.T) {
	mc := &MaskCache{}
	want := MaskIndices(nil, 42, 3, 512, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := mc.Get(42, 3, 512, 8); !slices.Equal(got, want) {
				t.Errorf("%d positions, want %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}
