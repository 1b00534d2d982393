package engine_test

import (
	"runtime"
	"testing"
	"time"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
)

// steppedEngine builds a two-shard engine over trivial nodes and runs one
// round, so its executors have really started.
func steppedEngine(t *testing.T) *engine.Engine {
	t.Helper()
	const n, dim = 4, 16
	nodes := make([]engine.Node, n)
	codecs := make([]engine.Codec, n)
	for r := range nodes {
		nodes[r] = newAllocNode(dim, uint64(r))
		codecs[r] = engine.Dense{}
	}
	eng := engine.New(engine.Options{
		Nodes: nodes, Codecs: codecs, Pattern: engine.Pairwise{}, Shards: 2,
		Planner: engine.PlannerFunc(func(tt int) core.RoundPlan {
			return core.RoundPlan{Round: tt, Peer: []int{1, 0, 3, 2}}
		}),
	})
	if _, err := eng.Step(0, &engine.CountingLedger{}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// goroutinesSettleAt collects garbage until the goroutine count is down to
// want (finalizers run on their own goroutine, after the cycle that found the
// engine unreachable) or two seconds pass, and returns the last count.
func goroutinesSettleAt(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		got := runtime.NumGoroutine()
		if got <= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAbandonedEngineReleasesExecutors: an engine dropped without Close must
// give its shard goroutines back once it is collected, and an engine closed
// twice and then collected must not trip over its own finalizer.
func TestAbandonedEngineReleasesExecutors(t *testing.T) {
	// Earlier tests' leftovers (their own abandoned engines, TCP goroutines
	// winding down) must be gone before the count means anything.
	before := runtime.NumGoroutine()
	for settled := 0; settled < 5; settled++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if now := runtime.NumGoroutine(); now != before {
			before, settled = now, 0
		}
	}

	engines := make([]*engine.Engine, 8)
	for i := range engines {
		engines[i] = steppedEngine(t)
	}
	if running := runtime.NumGoroutine(); running < before+2*len(engines) {
		t.Fatalf("%d goroutines with %d two-shard engines live, started from %d: the executors this test watches are not there", running, len(engines), before)
	}
	engines = nil // dropped on the floor, none closed
	if got := goroutinesSettleAt(before); got > before {
		t.Fatalf("%d goroutines after the abandoned engines were collected, want %d", got, before)
	}

	eng := steppedEngine(t)
	eng.Close()
	eng.Close()
	if _, err := eng.Step(1, &engine.CountingLedger{}); err == nil {
		t.Fatal("Step after Close succeeded")
	}
	eng = nil
	if got := goroutinesSettleAt(before); got > before {
		t.Fatalf("%d goroutines after Close, Close and collection, want %d", got, before)
	}
}
