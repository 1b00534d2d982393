package algos_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/transport"
)

// FuzzRestoreRank: whatever bytes a snapshot file or a rejoining worker hands
// a rank, engine.RestoreRank returns an error or nil — it never panics. An
// input names a synchronous recipe and a rank of snapshotSpec's fleet, and
// carries the two sections RankSnapshot.AppendTo writes. The seeds are every
// rank state in the committed snapshot fixtures, and a psgd trainer state
// captured over a longer shard than the rank's own.
func FuzzRestoreRank(f *testing.F) {
	recipes := algos.Names(func(r algos.Recipe) bool { return !r.Async() })
	index := map[string]uint8{}
	specs := make([]*scenario.Spec, len(recipes))
	shards := make([][]*dataset.Dataset, len(recipes))
	for i, algo := range recipes {
		index[algo] = uint8(i)
		specs[i] = snapshotSpec(algo)
		shards[i], _ = specs[i].Dataset()
	}

	for _, algo := range []string{"saps", "psgd", "dcd-psgd", "s-fedavg", "topk-psgd"} {
		data, err := os.ReadFile(filepath.Join(snapshotDir, algo+".snap"))
		if err != nil {
			f.Fatal(err)
		}
		snap, err := engine.DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		for rank, rs := range snap.Ranks {
			f.Add(index[algo], uint8(rank), rs.AppendTo(nil))
		}
	}
	ws, err := transport.LoadWorkerSnapshot(filepath.Join(snapshotDir, "worker-rank0.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index["saps"], uint8(ws.Rank), ws.State.AppendTo(nil))

	longer := snapshotSpec("psgd")
	longer.Data.Samples += 2 * snapshotN
	longShards, _ := longer.Dataset()
	longNode, longCodec := fuzzRank(f, longer, longShards, 0)
	foreign, err := engine.CaptureRank(longNode, longCodec, engine.RankSnapshot{})
	if err != nil {
		f.Fatal(err)
	}
	psgd := index["psgd"]
	node, codec := fuzzRank(f, specs[psgd], shards[psgd], 0)
	if err := engine.RestoreRank(node, codec, foreign); err == nil || !strings.Contains(err.Error(), "loader") {
		f.Fatalf("restoring a longer shard's state: error %v, want one naming the loader", err)
	}
	f.Add(psgd, uint8(0), foreign.AppendTo(nil))

	f.Fuzz(func(t *testing.T, algo, rank uint8, data []byte) {
		rs, _, err := engine.ReadRankSnapshot(data)
		if err != nil {
			return
		}
		i := int(algo) % len(recipes)
		node, codec := fuzzRank(t, specs[i], shards[i], int(rank))
		_ = engine.RestoreRank(node, codec, rs)
	})
}

// fuzzRank builds one freshly constructed rank of the spec's fleet (rank is
// taken modulo the fleet size): its node and its codec.
func fuzzRank(tb testing.TB, spec *scenario.Spec, shards []*dataset.Dataset, rank int) (engine.Node, engine.Codec) {
	tb.Helper()
	rec := spec.Recipe()
	rank %= rec.Nodes()
	m, err := spec.NewModel()
	if err != nil {
		tb.Fatal(err)
	}
	var shard *dataset.Dataset
	if rank != rec.ServerRank() {
		shard = shards[rank]
	}
	return rec.NewNode(rank, m, shard, nil), rec.Codecs(m.ParamCount())[rank]
}
