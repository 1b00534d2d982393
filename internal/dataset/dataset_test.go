package dataset

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// labelHistogram counts d's samples per class.
func labelHistogram(d *Dataset) []int {
	h := make([]int, d.Classes)
	for _, s := range d.Samples {
		h[s.Label]++
	}
	return h
}

func TestSyntheticShapesAndBalance(t *testing.T) {
	tr, va := ImageTask("mnist-like", 1, 28, 28, 10, 0.35, 1000, 200, 7)
	if tr.Dim() != 28*28 || tr.Classes != 10 {
		t.Fatalf("dim=%d classes=%d", tr.Dim(), tr.Classes)
	}
	if tr.Len() != 1000 || va.Len() != 200 {
		t.Fatalf("sizes %d/%d", tr.Len(), va.Len())
	}
	h := labelHistogram(tr)
	for k, c := range h {
		if c < 60 || c > 140 {
			t.Fatalf("class %d has %d samples, want ~100", k, c)
		}
	}
	for _, s := range tr.Samples[:10] {
		if len(s.X) != tr.Dim() {
			t.Fatal("sample dim")
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, _ := ImageTask("mnist-like", 1, 28, 28, 10, 0.35, 100, 10, 3)
	b, _ := ImageTask("mnist-like", 1, 28, 28, 10, 0.35, 100, 10, 3)
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatal("labels differ")
		}
		for j := range a.Samples[i].X {
			if a.Samples[i].X[j] != b.Samples[i].X[j] {
				t.Fatal("pixels differ")
			}
		}
	}
}

func TestSyntheticSeedsDiffer(t *testing.T) {
	a, _ := ImageTask("mnist-like", 1, 28, 28, 10, 0.35, 50, 10, 1)
	b, _ := ImageTask("mnist-like", 1, 28, 28, 10, 0.35, 50, 10, 2)
	same := true
	for i := range a.Samples {
		for j := range a.Samples[i].X {
			if a.Samples[i].X[j] != b.Samples[i].X[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Nearest-class-mean classification on clean prototypes should beat
	// chance by a wide margin — otherwise the task is unlearnable and all
	// convergence experiments would be meaningless.
	tr, va := ImageTask("mnist-like", 1, 28, 28, 10, 0.35, 2000, 400, 11)
	dim := tr.Dim()
	means := make([][]float64, tr.Classes)
	counts := make([]int, tr.Classes)
	for k := range means {
		means[k] = make([]float64, dim)
	}
	for _, s := range tr.Samples {
		for j, v := range s.X {
			means[s.Label][j] += v
		}
		counts[s.Label]++
	}
	for k := range means {
		for j := range means[k] {
			means[k][j] /= float64(counts[k])
		}
	}
	correct := 0
	for _, s := range va.Samples {
		best, bestD := -1, math.Inf(1)
		for k := range means {
			d := 0.0
			for j, v := range s.X {
				diff := v - means[k][j]
				d += diff * diff
			}
			if d < bestD {
				bestD, best = d, k
			}
		}
		if best == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(va.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-mean accuracy %v — task not separable (chance=0.1)", acc)
	}
}

func TestPartitionIID(t *testing.T) {
	tr, _ := ImageTask("mnist-like", 1, 28, 28, 10, 0.35, 1000, 10, 13)
	shards := PartitionIID(tr, 32, 1)
	if len(shards) != 32 {
		t.Fatal("shard count")
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
		if s.Len() < 1000/32-1 || s.Len() > 1000/32+1 {
			t.Fatalf("shard size %d unbalanced", s.Len())
		}
	}
	if total != 1000 {
		t.Fatalf("samples lost: %d", total)
	}
	// IID: every shard should contain most classes.
	for i, s := range shards {
		h := labelHistogram(s)
		nonzero := 0
		for _, c := range h {
			if c > 0 {
				nonzero++
			}
		}
		if nonzero < 5 {
			t.Fatalf("IID shard %d has only %d classes", i, nonzero)
		}
	}
}

func TestPartitionByLabelIsSkewed(t *testing.T) {
	tr, _ := ImageTask("mnist-like", 1, 28, 28, 10, 0.35, 2000, 10, 17)
	shards := PartitionByLabel(tr, 10, 2, 3)
	total := 0
	skewed := 0
	for _, s := range shards {
		total += s.Len()
		h := labelHistogram(s)
		nonzero := 0
		for _, c := range h {
			if c > 0 {
				nonzero++
			}
		}
		if nonzero <= 4 {
			skewed++
		}
	}
	if total != 2000 {
		t.Fatalf("samples lost: %d != 2000", total)
	}
	if skewed < 8 {
		t.Fatalf("only %d/10 shards are label-skewed — partition not non-IID", skewed)
	}
}

func TestLoaderCyclesAndShuffles(t *testing.T) {
	tr, _ := TinyTask(50, 4, 19)
	l := NewLoader(tr, 16, 1)
	seen := 0
	for i := 0; i < 10; i++ {
		xs, ys := l.Next()
		if len(xs) != 16 || len(ys) != 16 {
			t.Fatal("batch size")
		}
		seen += len(xs)
	}
	if l.Epochs < 2 {
		t.Fatalf("Epochs = %d after %d samples drawn from 50", l.Epochs, seen)
	}
}

func TestLoaderBatchClamp(t *testing.T) {
	tr, _ := TinyTask(5, 2, 23)
	l := NewLoader(tr, 100, 1)
	xs, _ := l.Next()
	if len(xs) != tr.Len() {
		t.Fatalf("batch = %d, want clamped to %d", len(xs), tr.Len())
	}
}

func TestLoaderPanics(t *testing.T) {
	tr, _ := TinyTask(5, 2, 23)
	for _, bad := range []func(){
		func() { NewLoader(tr, 0, 1) },
		func() { NewLoader(&Dataset{Classes: 2}, 1, 1) },
		func() { PartitionIID(tr, 0, 1) },
		func() { PartitionByLabel(tr, 0, 1, 1) },
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

// TestLoaderSetStateRefuses: a state that is not over the loader's own
// dataset, whose position is outside the epoch, or whose shuffle RNG is all
// zero is an error, and the loader keeps drawing what it would have.
func TestLoaderSetStateRefuses(t *testing.T) {
	tr, _ := TinyTask(5, 2, 23)
	other, _ := TinyTask(6, 2, 23)
	good := NewLoader(tr, 2, 1).State()
	for name, st := range map[string]LoaderState{
		"empty":        {},
		"other shard":  NewLoader(other, 2, 1).State(),
		"zero rng":     {Samples: good.Samples},
		"negative pos": {RNG: good.RNG, Samples: good.Samples, Pos: -1},
		"pos past end": {RNG: good.RNG, Samples: good.Samples, Pos: 6},
	} {
		l, ref := NewLoader(tr, 2, 1), NewLoader(tr, 2, 1)
		if err := l.SetState(st); err == nil || !strings.Contains(err.Error(), "loader state") {
			t.Errorf("%s: SetState error %v, want one naming the loader state", name, err)
		}
		_, got := l.Next()
		_, want := ref.Next()
		if !slices.Equal(got, want) {
			t.Errorf("%s: a refused state moved the loader", name)
		}
	}
}

// TestPartitionSharesBackingArrays pins the memory model the large-N
// in-process fleets rely on: partitioning copies Sample headers, not pixel
// data, so every shard is a view into the parent dataset and per-rank data
// memory is O(1) beyond the shared arrays.
func TestPartitionSharesBackingArrays(t *testing.T) {
	tr, _ := TinyTask(200, 4, 7)
	parent := make(map[*float64]bool, len(tr.Samples))
	for i := range tr.Samples {
		parent[&tr.Samples[i].X[0]] = true
	}
	for _, shards := range [][]*Dataset{
		PartitionIID(tr, 8, 1),
		PartitionByLabel(tr, 8, 2, 1),
		PartitionDirichlet(tr, 8, 0.3, 4, 1),
		PartitionQuantitySkew(tr, 8, 0.5, 4, 1),
	} {
		for w, s := range shards {
			for k := range s.Samples {
				if !parent[&s.Samples[k].X[0]] {
					t.Fatalf("shard %d sample %d copied its pixel data", w, k)
				}
			}
		}
	}
}
