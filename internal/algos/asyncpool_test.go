package algos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

// asyncPoolGolden holds one digest of asyncPoolDigest's run per async
// recipe, "<algo> <sha256>", recorded at GOMAXPROCS 1 when AD-PSGD's
// rendezvous became the atomic average of the endpoints' live states and
// Gradient Push's pushes began to merge at the receiver's block boundary.
// They pin what the driver decides, whatever the size of its compute pool.
const asyncPoolGolden = "testdata/async-pool.golden"

// stragglerFixture builds algo on the async64 benchmark's shape — 64 ranks
// on uniform 5–50 MB/s links, a quarter of them 8× slow, the 64-64-10 MLP
// at batch 16 — for steps cycles.
func stragglerFixture(algo string, steps int) (*AsyncFleet, engine.AsyncOptions) {
	const n, seed = 64, 7
	tr, _ := dataset.TinyTask(8192, 10, seed)
	rec := Recipe{Algo: algo, Workers: n, LR: 0.05, Batch: 16, Seed: seed}
	af := NewAsyncFleet(FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{64}, 10, seed) },
		Shards:  dataset.PartitionIID(tr, n, seed),
		LR:      rec.LR,
		Batch:   rec.Batch,
		Seed:    seed,
	}, rec)
	return af, engine.AsyncOptions{
		Nodes:     af.Nodes,
		Codecs:    af.Codecs,
		Bandwidth: netsim.RandomUniform(n, 5, 50, rng.New(seed)),
		Seed:      seed,
		Steps:     steps,
		OneWay:    rec.OneWay(),
		Compute: engine.AsyncComputeModel{
			MeanSeconds: 0.02, Jitter: 0.3, SlowFactor: 8, SlowRanks: rng.New(seed).Derive(0xa51c).Perm(n)[:n/4],
		},
	}
}

// asyncPoolDigest runs algo on stragglerFixture's shape for 40 cycles and
// hashes everything the run decides: the event log's bytes, every rank's
// parameter bits, the sample series and the per-rank byte ledgers.
func asyncPoolDigest(t *testing.T, algo string) string {
	t.Helper()
	af, opts := stragglerFixture(algo, 40)
	var log netsim.EventLog
	opts.Sink = &log
	res := runAsync(t, opts)
	h := sha256.New()
	var w [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(w[:], u)
		h.Write(w[:])
	}
	h.Write(log.Bytes())
	for _, m := range af.Models {
		for _, v := range m.FlatParams(nil) {
			put(math.Float64bits(v))
		}
	}
	for _, s := range res.Samples {
		put(uint64(s.Steps))
		put(math.Float64bits(s.Time))
		put(math.Float64bits(s.MeanLoss))
		put(uint64(s.CumBytes))
	}
	for r := range res.SentBytes {
		put(uint64(res.SentBytes[r]))
		put(uint64(res.RecvBytes[r]))
	}
	put(math.Float64bits(res.FinalTime))
	put(math.Float64bits(res.FinalLoss))
	put(uint64(res.TotalBytes))
	return hex.EncodeToString(h.Sum(nil))
}

// TestAsyncBitsIndependentOfPool: the driver runs compute blocks ahead of
// the event clock on a pool of GOMAXPROCS workers; at 1, 2 and 4 processors
// each async recipe's run must equal its recorded digest bit for bit.
func TestAsyncBitsIndependentOfPool(t *testing.T) {
	raw, err := os.ReadFile(asyncPoolGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if algo, digest, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[algo] = digest
		}
	}
	for _, algo := range Names(Recipe.Async) {
		if want[algo] == "" {
			t.Errorf("%s has no digest in %s", algo, asyncPoolGolden)
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := asyncPoolDigest(t, algo)
			runtime.GOMAXPROCS(prev)
			if got != want[algo] {
				t.Errorf("%s at GOMAXPROCS %d: digest %s, recorded %s", algo, procs, got, want[algo])
			}
		}
	}
}
