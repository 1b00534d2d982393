package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sapspsgd/internal/compress"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/transport"
)

// Probes time one public function of a layer in isolation, on inputs of the
// workload's shape. They run once per traced run, after the passes.

// medianOf times calls of fn and returns the median duration in seconds.
func medianOf(calls int, fn func()) float64 {
	d := make([]float64, calls)
	for i := range d {
		start := time.Now()
		fn()
		d[i] = time.Since(start).Seconds()
	}
	return percentile(d, 0.5)
}

// percentile returns the p-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// shape is what the probes need to know about a workload.
type shape struct {
	bw          *netsim.Bandwidth
	bThres      float64
	model       *nn.Model
	shard       *dataset.Dataset
	batch       int
	compression float64
}

func workloadShape(name string) shape {
	if name == "tcp8" {
		env := loadTCP(0, size{})
		shards, _ := env.task.BuildShards(tcpWorkers)
		m, err := env.task.BuildModel()
		if err != nil {
			panic(err) // the committed spec names a known architecture
		}
		return shape{bw: env.bw, model: m, shard: shards[0], batch: env.task.Batch, compression: env.task.Compression}
	}
	spec := loadSpec(name)
	task := buildTask(spec)
	return shape{
		bw: spec.Env(), bThres: gossipConfig(spec).BThres,
		model: nn.NewMLP(task.dim, spec.Model.Hidden, task.classes, spec.Seed),
		shard: task.shards[0], batch: spec.Batch, compression: max(1, spec.Compression),
	}
}

// probeCalls is how many calls a probe's median is over (three times as many
// for the sub-millisecond ones).
const probeCalls = 11

func callProbes(name string, calls int) map[string]float64 {
	sh := workloadShape(name)
	m := map[string]float64{}

	// Planner: the greedy seed matching over the workload's B* edge set and
	// its augmentation to maximum cardinality, as Algorithm 3 runs them.
	n := sh.bw.N
	edges := sh.bw.AppendEdges(nil, sh.bThres)
	rnd := rng.New(1)
	var seed graph.Matching
	m["graph.greedy_s_per_call"] = medianOf(calls, func() { seed = graph.GreedyWeightedMatching(n, edges, rnd) })
	m["graph.edges_per_call"] = float64(len(edges))
	m["graph.free_after_greedy"] = float64(n - 2*seed.Size())
	g := graph.NewFromEdges(n, edges)
	m["graph.augment_s_per_call"] = medianOf(calls, func() { graph.AugmentToMaximum(g, seed, rnd) })

	// Compute: one SGD step and one minibatch draw.
	loader := dataset.NewLoader(sh.shard, sh.batch, 1)
	opt := &nn.SGD{LR: 0.05}
	xs, ys := loader.Next()
	m["nn.train_batch_s_per_call"] = medianOf(3*calls, func() { nn.TrainBatch(sh.model, opt, xs, ys) })
	m["dataset.next_batch_s_per_call"] = medianOf(3*calls, func() { loader.Next() })

	// Codecs, on the workload's parameter vector.
	x := sh.model.FlatParams(nil)
	var mask []bool
	round := 0
	m["compress.mask_s_per_call"] = medianOf(3*calls, func() {
		mask = compress.MaskInto(mask, 1, round, len(x), sh.compression)
		round++
	})
	var sv compress.SparseVec
	var mags []float64
	m["compress.topk_s_per_call"] = medianOf(3*calls, func() { mags = compress.TopKInto(&sv, mags, x, max(1, len(x)/100)) })
	q := compress.NewQSGD(16, 1)
	var words []float64
	m["compress.qsgd_s_per_call"] = medianOf(3*calls, func() { words = q.AppendQuantized(words, x) })

	// Event queue: one push and one pop at depth 128, the order of the
	// async engine's queue (two or three events per rank in flight).
	var eq netsim.EventQueue
	now := 0.0
	push := func() {
		now += rnd.Float64()
		eq.Push(netsim.Event{Time: now + 10*rnd.Float64(), Kind: netsim.EventComputeDone, Rank: int32(rnd.Intn(64)), Peer: -1})
	}
	for i := 0; i < 128; i++ {
		push()
	}
	const ops = 1000
	m["netsim.queue_op_s"] = medianOf(calls, func() {
		for i := 0; i < ops; i++ {
			push()
			eq.Pop()
		}
	}) / ops
	return m
}

// checkpointProbe measures what a checkpoint of the fleet's final state
// costs: the engine snapshot in memory, and one rank's snapshot through the
// TCP worker's on-disk format.
func checkpointProbe(f *syncFleet, nextRound int, b *roundBudget) error {
	if b.extra == nil {
		b.extra = map[string]float64{}
	}
	t0 := time.Now()
	snap, err := f.eng.Checkpoint(nextRound, f.led)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return err
	}
	b.extra["engine.checkpoint_s"] += time.Since(t0).Seconds()
	b.extra["engine.snapshot_mb"] += float64(buf.Len()) / 1e6

	t1 := time.Now()
	back, err := engine.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	if err := f.eng.Restore(back, f.led); err != nil {
		return err
	}
	b.extra["engine.restore_s"] += time.Since(t1).Seconds()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "probe.snapshot")
	defer os.Remove(path)
	ws := &transport.WorkerSnapshot{Version: transport.WorkerSnapshotVersion, NextRound: nextRound, State: snap.Ranks[0]}
	t2 := time.Now()
	if err := transport.SaveWorkerSnapshot(path, ws); err != nil {
		return err
	}
	t3 := time.Now()
	if _, err := transport.LoadWorkerSnapshot(path); err != nil {
		return err
	}
	b.extra["transport.snapshot_save_s"] = t3.Sub(t2).Seconds()
	b.extra["transport.snapshot_load_s"] = time.Since(t3).Seconds()
	return nil
}
