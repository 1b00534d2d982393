package compress

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sapspsgd/internal/rng"
)

// The selection kernels are pinned to verbatim copies of the code they
// replaced: quickselectTopKInto/quickselectDesc are TopKInto and its
// quickselect as of PR 24, mapRandomKInto is RandomKInto's map-based Floyd
// loop. The oracles do not change; a failure means the kernel drifted.

var recordFuzzCorpus = flag.Bool("record-fuzz-corpus", false,
	"rewrite testdata/fuzz/FuzzTopKInto from the oracle table")

func quickselectTopKInto(out *SparseVec, mags []float64, x []float64, k int) []float64 {
	n := len(x)
	if k < 0 {
		panic(fmt.Sprintf("compress: negative k %d", k))
	}
	if k > n {
		k = n
	}
	out.N = n
	out.Idx = out.Idx[:0]
	out.Val = out.Val[:0]
	if k == 0 {
		return mags
	}
	if k == n {
		for i := range x {
			out.Idx = append(out.Idx, int32(i))
			out.Val = append(out.Val, x[i])
		}
		return mags
	}

	// Quickselect the k-th largest magnitude.
	if cap(mags) < n {
		mags = make([]float64, n)
	}
	mags = mags[:n]
	for i, v := range x {
		if v < 0 {
			mags[i] = -v
		} else {
			mags[i] = v
		}
	}
	thresh := quickselectDesc(mags, k)

	// Single pass in ascending index order: keep every entry whose magnitude
	// clears the threshold, counting the threshold ties. Quickselect
	// guarantees at most k-1 strictly-greater entries and at least k entries
	// overall, so the surplus (if any) consists entirely of ties; a short
	// compaction then drops the highest-indexed ties down to exactly k.
	// Because the pass visits indices in order, the result is already
	// index-sorted — no sort needed, unlike the historical two-pass + sort,
	// and the selected set and ordering are identical (all strictly-greater
	// entries plus the lowest-indexed ties).
	eq := 0
	for i, v := range x {
		m := v
		if m < 0 {
			m = -m
		}
		if m < thresh {
			continue
		}
		if m == thresh {
			eq++
		}
		out.Idx = append(out.Idx, int32(i))
		out.Val = append(out.Val, v)
	}
	if drop := len(out.Idx) - k; drop > 0 {
		keepEq := eq - drop
		w := 0
		for r := 0; r < len(out.Idx); r++ {
			m := out.Val[r]
			if m < 0 {
				m = -m
			}
			if m == thresh {
				if keepEq == 0 {
					continue
				}
				keepEq--
			}
			out.Idx[w], out.Val[w] = out.Idx[r], out.Val[r]
			w++
		}
		out.Idx, out.Val = out.Idx[:w], out.Val[:w]
	}
	return mags
}

// quickselectDesc returns the k-th largest value of a (1-based k), mutating a.
func quickselectDesc(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	target := k - 1 // index in descending order
	// Deterministic pseudo-random pivots via a tiny LCG keep adversarial
	// inputs from degrading to O(n^2).
	state := uint64(0x9e3779b97f4a7c15)
	for {
		if lo == hi {
			return a[lo]
		}
		state = state*6364136223846793005 + 1442695040888963407
		p := lo + int(state%uint64(hi-lo+1))
		a[p], a[hi] = a[hi], a[p]
		pivot := a[hi]
		store := lo
		for i := lo; i < hi; i++ {
			if a[i] > pivot {
				a[i], a[store] = a[store], a[i]
				store++
			}
		}
		a[store], a[hi] = a[hi], a[store]
		switch {
		case target == store:
			return a[store]
		case target < store:
			hi = store - 1
		default:
			lo = store + 1
		}
	}
}

func mapRandomKInto(out *SparseVec, chosen map[int32]bool, x []float64, k int, r *rng.Source) {
	n := len(x)
	if k > n {
		k = n
	}
	out.N = n
	out.Idx = out.Idx[:0]
	out.Val = out.Val[:0]
	if k == 0 {
		return
	}
	// Floyd's sampling: k uniform draws without replacement in O(k). The
	// map is only ever membership-tested in ascending index order, so its
	// (randomized) iteration order cannot leak into the result.
	clear(chosen)
	for j := n - k; j < n; j++ {
		t := int32(r.Intn(j + 1))
		if chosen[t] {
			t = int32(j)
		}
		chosen[t] = true
	}
	for i := int32(0); int(i) < n; i++ {
		if chosen[i] {
			out.Idx = append(out.Idx, i)
			out.Val = append(out.Val, x[i])
		}
	}
}

// sameSparse reports the first difference between two sparse vectors, values
// compared bit for bit ("" when there is none).
func sameSparse(got, want SparseVec) string {
	if got.N != want.N || len(got.Idx) != len(want.Idx) || len(got.Val) != len(want.Val) {
		return fmt.Sprintf("shape N=%d %d/%d entries, want N=%d %d/%d", got.N, len(got.Idx), len(got.Val), want.N, len(want.Idx), len(want.Val))
	}
	for i := range want.Idx {
		if got.Idx[i] != want.Idx[i] || math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			return fmt.Sprintf("entry %d: (%d, %v) want (%d, %v)", i, got.Idx[i], got.Val[i], want.Idx[i], want.Val[i])
		}
	}
	return ""
}

// oracleInputs are the NaN-free vectors of the oracle table at length n.
func oracleInputs(n int) map[string][]float64 {
	seeded := randVec(n, uint64(n)+11)

	// Salted: a fifth of the entries replaced by ±0, ±Inf, subnormals and a
	// small pool of magnitudes that recur with both signs.
	salted := randVec(n, uint64(n)+12)
	r := rng.New(uint64(n) + 13)
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, -0x1p-1030,
		0.5, -0.5, 2.25, -2.25,
	}
	for i := range salted {
		if r.Intn(5) == 0 {
			salted[i] = specials[r.Intn(len(specials))]
		}
	}

	equal := make([]float64, n)
	for i := range equal {
		equal[i] = -1.25
	}

	// Half the entries tie at ±1: an eighth sit above them and three eighths
	// below, so every k in (n/8, 5n/8] — n/4 among them — has its threshold
	// inside the tie.
	tied := make([]float64, n)
	for i, z := range randVec(n, uint64(n)+14) {
		switch i % 8 {
		case 0:
			tied[i] = 4 + z*z
		case 1, 2, 3, 4:
			tied[i] = math.Copysign(1, z)
		default:
			tied[i] = z / (4 + z*z)
		}
	}
	return map[string][]float64{"seeded": seeded, "salted": salted, "equal": equal, "tied": tied}
}

var oracleSizes = []int{1, 2, 3, 64, 1000, 85002}

func oracleKs(n int) []int { return []int{0, 1, 2, n / 100, n / 4, n - 1, n, n + 5} }

// TestTopKMatchesQuickselectOracle: on NaN-free input the radix select picks
// exactly the entries quickselect did, in the same order, with the same bits.
func TestTopKMatchesQuickselectOracle(t *testing.T) {
	corpus := map[string][]byte{}
	for _, n := range oracleSizes {
		for name, x := range oracleInputs(n) {
			var got, want SparseVec
			var mags []float64
			for _, k := range oracleKs(n) {
				mags = TopKInto(&got, mags, x, k)
				if name == "equal" && n > 1000 {
					// Quickselect is quadratic on one value: its answer is
					// the first k entries.
					want = SparseVec{N: n}
					for i := range min(k, n) {
						want.Idx = append(want.Idx, int32(i))
						want.Val = append(want.Val, x[i])
					}
				} else {
					quickselectTopKInto(&want, nil, x, k)
				}
				if d := sameSparse(got, want); d != "" {
					t.Fatalf("n=%d %s k=%d: %s", n, name, k, d)
				}
			}
			if n <= 4096 {
				corpus[fmt.Sprintf("%s-%d", name, n)] = fuzzEntry(x, max(1, n/4))
			}
		}
	}
	if *recordFuzzCorpus {
		recordCorpus(t, "FuzzTopKInto", corpus)
	}
}

// nanVector is 1000 seeded values with NaNs of both signs at three indices.
func nanVector() (x []float64, nans []int32) {
	x = randVec(1000, 21)
	nans = []int32{17, 500, 998}
	x[17], x[500], x[998] = math.NaN(), math.Copysign(math.NaN(), -1), math.NaN()
	return x, nans
}

// TestTopKNaN: NaNs rank above +Inf, so a vector holding them still yields
// exactly min(k, n) entries in ascending index order, its NaNs first. The
// quickselect oracle appended every NaN and counted none as a tie: 4 entries
// for k = 1, 103 for k = 100.
func TestTopKNaN(t *testing.T) {
	x, nans := nanVector()
	var old SparseVec
	for k, wantOld := range map[int]int{1: 4, 100: 103} {
		if quickselectTopKInto(&old, nil, x, k); len(old.Idx) != wantOld {
			t.Fatalf("oracle k=%d: %d entries, the parent returned %d", k, len(old.Idx), wantOld)
		}
	}
	// The same vector with its NaNs zeroed: below every other entry.
	rest := slices.Clone(x)
	for _, i := range nans {
		rest[i] = 0
	}
	for _, k := range []int{1, 2, 3, 4, 100, 997, 999, 1000, 1005} {
		got := topK(x, k)
		var want []int32
		switch {
		case k <= len(nans):
			want = nans[:k]
		case k >= len(x):
			want = topK(rest, len(x)).Idx // everything
		default: // the NaNs, then the top of the rest, which holds no zero
			want = slices.Concat(nans, topK(rest, k-len(nans)).Idx)
			slices.Sort(want)
		}
		if !slices.Equal(got.Idx, want) {
			t.Fatalf("k=%d: selected %v, want %v", k, got.Idx, want)
		}
		for i, idx := range got.Idx {
			if math.Float64bits(got.Val[i]) != math.Float64bits(x[idx]) {
				t.Fatalf("k=%d: value at %d is %v, x holds %v", k, idx, got.Val[i], x[idx])
			}
		}
	}
}

// fuzzEntry encodes a vector and k the way FuzzTopKInto decodes them.
func fuzzEntry(x []float64, k int) []byte {
	data := binary.LittleEndian.AppendUint16(nil, uint16(k))
	for _, v := range x {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

func recordCorpus(t *testing.T, target string, entries map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzTopKInto: bytes → k (two bytes) and up to 4096 float64 words, NaN, Inf
// and ±0 allowed. TopKInto returns exactly min(k, n) entries in strictly
// ascending index order, carrying x's bits, and no unselected magnitude
// outranks a selected one in the bit order; on NaN-free input it equals the
// quickselect oracle.
func FuzzTopKInto(f *testing.F) {
	x, _ := nanVector()
	f.Add(fuzzEntry(x, 5))
	f.Add(fuzzEntry([]float64{1, -1, math.Inf(-1), 0, math.Copysign(0, -1)}, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(binary.LittleEndian.Uint16(data))
		words := data[2:]
		x := make([]float64, min(len(words)/8, 4096))
		nanFree := true
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
			nanFree = nanFree && !math.IsNaN(x[i])
		}
		got := topK(x, k)
		if len(got.Idx) != min(k, len(x)) || len(got.Val) != len(got.Idx) || got.N != len(x) {
			t.Fatalf("k=%d n=%d: %d/%d entries over N=%d", k, len(x), len(got.Idx), len(got.Val), got.N)
		}
		selected := make([]bool, len(x))
		minSel := uint64(math.MaxUint64)
		for i, idx := range got.Idx {
			if i > 0 && got.Idx[i-1] >= idx {
				t.Fatalf("indices not strictly ascending: %v", got.Idx)
			}
			if math.Float64bits(got.Val[i]) != math.Float64bits(x[idx]) {
				t.Fatalf("value at %d is %v, x holds %v", idx, got.Val[i], x[idx])
			}
			selected[idx] = true
			minSel = min(minSel, math.Float64bits(x[idx])&^signBit)
		}
		for i, v := range x {
			if b := math.Float64bits(v) &^ signBit; !selected[i] && b > minSel {
				t.Fatalf("unselected %v at %d outranks a selected magnitude", v, i)
			}
		}
		if nanFree {
			var want SparseVec
			quickselectTopKInto(&want, nil, x, k)
			if d := sameSparse(got, want); d != "" {
				t.Fatalf("k=%d n=%d: %s", k, len(x), d)
			}
		}
	})
}

// TestRandomKMatchesMapOracle: the bitset draws the same support as the map
// from the same stream and leaves the stream at the same position, over
// repeated calls into reused scratch.
func TestRandomKMatchesMapOracle(t *testing.T) {
	for _, n := range []int{1, 10, 63, 64, 65, 1000, 85002} {
		x := randVec(n, uint64(n))
		for _, k := range []int{1, n / 10, n - 1, n} {
			rb, rm := rng.New(uint64(n*31+k)), rng.New(uint64(n*31+k))
			var got, want SparseVec
			var set []uint64
			chosen := map[int32]bool{}
			for call := 0; call < 3; call++ {
				RandomKInto(&got, &set, x, k, rb)
				mapRandomKInto(&want, chosen, x, k, rm)
				if d := sameSparse(got, want); d != "" {
					t.Fatalf("n=%d k=%d call %d: %s", n, k, call, d)
				}
				if rb.State() != rm.State() {
					t.Fatalf("n=%d k=%d call %d: stream at %+v, the map version at %+v", n, k, call, rb.State(), rm.State())
				}
			}
		}
	}
}
