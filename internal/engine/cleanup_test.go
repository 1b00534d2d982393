package engine_test

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
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

// errBlock is the failing compute block's error.
var errBlock = errors.New("compute block failed")

// failingAsyncNode is a toy AD-PSGD-style rank for the async driver's error
// paths: Compute adds one to every parameter, Merge averages. The failing
// rank's Compute at the failing step returns errBlock (or panics with it).
// Every Compute that starts after that sleeps, so a driver that returned
// without joining its pool would leave those workers running.
type failingAsyncNode struct {
	x     []float64
	fails bool
	step  int
	panic bool
	hit   *atomic.Bool
	live  *atomic.Int64 // goroutines counted inside the failing Compute
}

func (a *failingAsyncNode) Compute(ctx engine.RoundContext) (float64, []float64, error) {
	if a.hit.Load() {
		time.Sleep(100 * time.Millisecond)
	}
	if a.fails && ctx.Round == a.step {
		a.live.Store(int64(runtime.NumGoroutine()))
		a.hit.Store(true)
		if a.panic {
			panic(errBlock)
		}
		return 0, nil, errBlock
	}
	for i := range a.x {
		a.x[i]++
	}
	return 1, a.x, nil
}

func (a *failingAsyncNode) Snapshot() []float64 { return a.x }

func (a *failingAsyncNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		for i, v := range m.Vals {
			a.x[i] = 0.5 * (a.x[i] + v)
		}
	}
	return nil
}

// TestAsyncFailureJoinsComputePool: when one rank's compute block fails
// mid-run — by error or by panic — the rendezvous driver returns it as Run's
// error, and every worker of its compute pool has exited by the time Run
// returns.
func TestAsyncFailureJoinsComputePool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, panics := range []bool{false, true} {
		const n, dim = 8, 16
		var (
			hit  atomic.Bool
			live atomic.Int64
		)
		nodes := make([]engine.AsyncNode, n)
		codecs := make([]engine.Codec, n)
		for r := range nodes {
			nodes[r] = &failingAsyncNode{x: make([]float64, dim), fails: r == 3, step: 4, panic: panics, hit: &hit, live: &live}
			codecs[r] = engine.Dense{}
		}
		eng, err := engine.NewAsync(engine.AsyncOptions{
			Nodes: nodes, Codecs: codecs, Bandwidth: netsim.RandomUniform(n, 5, 50, rng.New(1)),
			Seed: 1, Steps: 10, Compute: engine.AsyncComputeModel{MeanSeconds: 0.01, Jitter: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		_, err = eng.Run()
		after := runtime.NumGoroutine()
		if err == nil || !strings.Contains(err.Error(), errBlock.Error()) || panics != strings.Contains(err.Error(), "panicked") {
			t.Fatalf("panic=%v: Run returned %v, want the compute block's failure", panics, err)
		}
		if int(live.Load()) <= before {
			t.Fatalf("%d goroutines inside the failing block, %d before Run: no compute pool ran", live.Load(), before)
		}
		// A worker that has signalled its exit may still be on its way out.
		for deadline := time.Now().Add(50 * time.Millisecond); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after != before {
			t.Fatalf("panic=%v: %d goroutines after Run, %d before", panics, after, before)
		}
	}
}
