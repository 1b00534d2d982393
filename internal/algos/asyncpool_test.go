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

// asyncPoolGolden holds the digest of asyncPoolDigest's run as the serial
// driver produced it, at the commit before the rendezvous driver handed
// compute blocks to worker goroutines. It is recorded once and never
// re-recorded: a driver whose worker pool moved any bit fails against it.
const asyncPoolGolden = "testdata/async-pool.golden"

// asyncPoolDigest runs AD-PSGD on the async64 benchmark's shape — 64 ranks
// on uniform 5–50 MB/s links, a quarter of them 8× slow, the 64-64-10 MLP
// at batch 16 — for 40 cycles, and hashes everything the run decides: the
// event log's bytes, every rank's parameter bits, the sample series and the
// per-rank byte ledgers.
func asyncPoolDigest(t *testing.T) string {
	t.Helper()
	const n, steps, seed = 64, 40, 7
	tr, _ := dataset.TinyTask(8192, 10, seed)
	rec := Recipe{Algo: "adpsgd", Workers: n, LR: 0.05, Batch: 16, Seed: seed}
	af := NewAsyncFleet(FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{64}, 10, seed) },
		Shards:  dataset.PartitionIID(tr, n, seed),
		LR:      rec.LR,
		Batch:   rec.Batch,
		Seed:    seed,
	}, rec)
	var log netsim.EventLog
	res := runAsync(t, engine.AsyncOptions{
		Nodes:     af.Nodes,
		Codecs:    af.Codecs,
		Bandwidth: netsim.RandomUniform(n, 5, 50, rng.New(seed)),
		Seed:      seed,
		Steps:     steps,
		Compute: engine.AsyncComputeModel{
			MeanSeconds: 0.02, Jitter: 0.3, SlowFactor: 8, SlowRanks: rng.New(seed).Derive(0xa51c).Perm(n)[:n/4],
		},
		Sink: &log,
	})
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

// TestAsyncBitsIndependentOfPool: the rendezvous driver runs compute blocks
// ahead of the event clock on a pool of GOMAXPROCS workers; at 1, 2 and 4
// processors the run must equal, bit for bit, the serial driver's recorded
// digest.
func TestAsyncBitsIndependentOfPool(t *testing.T) {
	raw, err := os.ReadFile(asyncPoolGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = strings.TrimSpace(line)
		}
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := asyncPoolDigest(t)
		runtime.GOMAXPROCS(prev)
		if got != want {
			t.Errorf("GOMAXPROCS %d: digest %s, serial driver's %s", procs, got, want)
		}
	}
}
