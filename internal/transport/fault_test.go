// Fault-tolerance tests: the TCP deployment under real process kills must
// reproduce the in-process engine's fault simulation bit for bit (scheduled
// crash + rejoin from snapshot), and must survive unscheduled worker losses
// by aborting, rolling back, and re-planning the round. These run under the
// race detector in CI (the transport package is in the race matrix).
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
)

// TestKillAndRejoinBitIdentical is the acceptance contract of the
// fault-tolerant TCP runtime, on the committed saps-crash-rejoin spec: real
// worker processes are killed at their scheduled round boundaries (abrupt
// teardown after the last committed snapshot) — rank 2 to return two rounds
// later, rank 5 and the mortality draws for good — the fleet trains on
// without them, a fresh process resumes rank 2 from its snapshot at the
// scheduled round, and the final model is bit-identical, with a
// byte-identical per-round ledger, to the in-process run of the same spec.
func TestKillAndRejoinBitIdentical(t *testing.T) {
	spec, err := scenario.Load("../scenario/testdata/saps-crash-rejoin.json")
	if err != nil {
		t.Fatal(err)
	}
	wantParams, wantBytes := inProcess(t, spec, 0, nil)
	got := runFleet(t, &CoordinatorServer{Spec: spec, RejoinWait: 10 * time.Second})
	sameRun(t, got, wantParams, wantBytes)
	if total, want := sum(got.kills), scheduledKills(t, spec); total != want {
		t.Fatalf("%d workers killed, want the schedule's %d", total, want)
	}
}

// scheduledKills counts the kills spec's fault schedule makes: one per
// boundary at which a rank alive the round before is scheduled dead.
func scheduledKills(t *testing.T, spec *scenario.Spec) int {
	t.Helper()
	_, planner, err := spec.Coordinator(spec.Env())
	if err != nil {
		t.Fatal(err)
	}
	kills, alive := 0, make([]bool, spec.Nodes)
	for r := range alive {
		alive[r] = true
	}
	for round := 0; round < spec.Rounds; round++ {
		if err := planner.Begin(round); err != nil {
			t.Fatal(err)
		}
		for r, on := range planner.Scheduled() {
			if alive[r] && !on {
				kills++
			}
			alive[r] = on
		}
	}
	return kills
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// TestEarlyRejoinerHeldOutUntilWindowCloses is the regression for the early
// rejoiner: a worker restarted at once lands its Rejoin while the boundary
// that killed it is still being prepared, two rounds before the schedule has
// it back. Admitted there (as the coordinator used to), it was crashed again
// at the next boundary, rejected as stale after that, and the run timed out.
// The arrival is forced, not raced: the schedule kills ranks 1 and 2 at the
// same boundary, and the coordinator is held (inside its own log call, on its
// own goroutine) before it kills rank 2 until rank 1's handshake is queued.
func TestEarlyRejoinerHeldOutUntilWindowCloses(t *testing.T) {
	spec := tinySpec("saps", 5, 8)
	spec.Faults = &scenario.FaultsSpec{Crashes: []scenario.CrashSpec{
		{Rank: 1, Round: 3, RejoinAfter: 2},
		{Rank: 2, Round: 3, RejoinAfter: 2},
	}}
	wantParams, wantBytes := inProcess(t, spec, 0, nil)
	held := false
	srv := &CoordinatorServer{Spec: spec, RejoinWait: 10 * time.Second}
	srv.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		if !strings.Contains(line, "crashing rank 2 at round 3") {
			return
		}
		held = true
		for deadline := time.Now().Add(10 * time.Second); len(srv.rejoinCh) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("rank 1's rejoin handshake never arrived")
				return
			}
		}
	}
	got := runFleet(t, srv)
	sameRun(t, got, wantParams, wantBytes)
	if !held {
		t.Fatal("the coordinator never reached rank 2's kill at round 3")
	}
	for _, c := range got.kills {
		if c > 1 {
			t.Errorf("a worker was killed %d times, want at most once", c)
		}
	}
	if total := sum(got.kills); total != 2 {
		t.Fatalf("%d kills, want the schedule's 2", total)
	}
}

// TestUnscheduledCrashReplans exercises the detection path: a worker dies
// without warning (no fault schedule, the coordinator is not told), the
// affected round aborts, every survivor rolls back to its round-boundary
// snapshot, and the coordinator re-plans the round over the remaining fleet.
// The run must complete all rounds with the surviving workers — and, the
// coordinator's driver being the engine's, end with engine_rounds_total at the
// committed rounds and engine_wire_bytes_total at the ledger's traffic, the
// aborted attempt counted in neither. Every worker keeps a snapshot: a
// survivor's holds the state after the last round, and the killed worker's
// the boundary the coordinator recorded its death at, committed before the
// worker died.
func TestUnscheduledCrashReplans(t *testing.T) {
	const n, rounds, dieAt = 4, 6, 3
	metrics := obs.New()
	obs.Enable(metrics)
	defer obs.Enable(nil)

	led := &engine.CountingLedger{}
	srv := &CoordinatorServer{Spec: tinySpec("saps", n, rounds), Ledger: led, Logf: t.Logf}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("worker-%d.snap", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wc := &WorkerClient{SnapshotPath: paths[i]}
			if i == 0 {
				// This client (whatever rank it registers as) tears down
				// abruptly upon receiving the round-3 control message.
				die := dieAt
				wc.dieAtRound = &die
			}
			_, errs[i] = wc.Run(addr, "127.0.0.1:0")
		}(i)
	}
	final, err := srv.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, e := range errs[1:] {
		if e != nil {
			t.Fatalf("surviving worker %d: %v", i+1, e)
		}
	}
	if !errors.Is(errs[0], ErrCrashed) {
		t.Fatalf("killed worker returned %v, want ErrCrashed", errs[0])
	}
	if len(final) == 0 {
		t.Fatal("no final model collected")
	}
	if got := led.Rounds(); got != rounds {
		t.Fatalf("%d rounds charged, want %d (aborted attempts must not be charged)", got, rounds)
	}
	em := metrics.EngineM()
	if got := em.RoundsTotal.Value(); got != rounds {
		t.Errorf("engine_rounds_total %d, want the %d committed rounds", got, rounds)
	}
	if got, want := em.WireBytesTotal.Value(), 2*led.TotalBytes(); got != want || want == 0 {
		t.Errorf("engine_wire_bytes_total %d, want every payload at both its ends: %d", got, want)
	}
	for i, path := range paths {
		snap, err := LoadWorkerSnapshot(path)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		want := rounds
		if i == 0 {
			want = srv.deadSince[snap.Rank]
			if want != dieAt {
				t.Errorf("the coordinator recorded the killed rank dead at round %d, want %d", want, dieAt)
			}
		}
		if snap.NextRound != want {
			t.Errorf("worker %d (rank %d): snapshot resumes at round %d, want %d", i, snap.Rank, snap.NextRound, want)
		}
	}
}

// TestRejoinRejectsStaleSnapshot covers the integrity check on both sides:
// a worker resuming from a tampered (wrong-round) snapshot is rejected with
// an actionable reason, and the coordinator times out waiting for the
// scheduled rejoiner rather than silently diverging.
func TestRejoinRejectsStaleSnapshot(t *testing.T) {
	const n = 4
	spec := tinySpec("saps", n, 8)
	spec.Faults = &scenario.FaultsSpec{Crashes: []scenario.CrashSpec{{Rank: 1, Round: 2, RejoinAfter: 2}}}
	srv := &CoordinatorServer{Spec: spec, RejoinWait: 2 * time.Second}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var wg sync.WaitGroup
	var rejoinErr error
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := filepath.Join(dir, fmt.Sprintf("worker-%d.snap", i))
			wc := &WorkerClient{SnapshotPath: path}
			_, err := wc.Run(addr, "127.0.0.1:0")
			if !errors.Is(err, ErrCrashed) {
				return // survivors end with the coordinator's teardown
			}
			// Tamper: pretend the snapshot is one round older than it is.
			snap, err := LoadWorkerSnapshot(path)
			if err != nil {
				rejoinErr = err
				return
			}
			snap.NextRound--
			if err := SaveWorkerSnapshot(path, snap); err != nil {
				rejoinErr = err
				return
			}
			wc = &WorkerClient{SnapshotPath: path, Resume: true}
			_, rejoinErr = wc.Run(addr, "127.0.0.1:0")
		}(i)
	}
	_, err = srv.Run()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "did not rejoin") {
		t.Fatalf("coordinator error %v, want rejoin timeout", err)
	}
	if rejoinErr == nil || !strings.Contains(rejoinErr.Error(), "rejoin rejected") {
		t.Fatalf("rejoin error %v, want rejection with reason", rejoinErr)
	}
	if !strings.Contains(rejoinErr.Error(), "died at round") {
		t.Fatalf("rejection reason %q lacks the round mismatch", rejoinErr)
	}
}

// TestAbortRedialsPeers: an Abort closes the worker's peer connections, so
// the re-planned attempt's first Send to the same peer dials a new one. A
// connection kept across the Abort may lead to the rank that died. A
// scripted coordinator drives one real worker; the peer is a listener that
// counts the connections it accepts and reads nothing.
func TestAbortRedialsPeers(t *testing.T) {
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peerLn.Close()
	// Room for more dials than the test allows, so the accept loop never
	// blocks on a send and ends when the listener closes.
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			nc, err := peerLn.Accept()
			if err != nil {
				return
			}
			accepted <- nc
		}
	}()
	coordLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coordLn.Close()
	ran := make(chan error, 1)
	go func() {
		_, err := (&WorkerClient{}).Run(coordLn.Addr().String(), "127.0.0.1:0")
		ran <- err
	}()
	nc, err := coordLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	coord := NewConn(nc)
	defer func() {
		coord.Close()
		<-ran
	}()
	expect := func(want any) {
		t.Helper()
		got, err := coord.Recv()
		if err != nil || fmt.Sprintf("%T", got) != fmt.Sprintf("%T", want) {
			t.Fatalf("the worker sent %#v (%v), want a %T", got, err, want)
		}
	}
	send := func(m any) {
		t.Helper()
		if err := coord.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	dialled := func(what string) net.Conn {
		t.Helper()
		select {
		case c := <-accepted:
			t.Cleanup(func() { c.Close() })
			return c
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the worker dialled no new connection to its peer", what)
			return nil
		}
	}

	expect(Hello{})
	send(Welcome{Rank: 0, N: 2, Addrs: []string{"", peerLn.Addr().String()}, Spec: []byte(`{"schema_version": 2,
		"name": "abort", "algo": "saps", "nodes": 2, "rounds": 2, "seed": 1, "lr": 0.1, "batch": 4,
		"compression": 4, "model": {"hidden": [4]}, "data": {"samples": 16, "classes": 2},
		"bandwidth": {"kind": "uniform", "lo": 1, "hi": 2}}`)})
	// Attempt 0 sends its payload to rank 1 and waits for one that never
	// comes; the Abort cancels it.
	send(RoundMsg{Round: 0, Seed: 1, Peer: 1})
	first := dialled("attempt 0")
	send(Abort{Round: 0})
	expect(AbortAck{})
	within(t, 30*time.Second, func() error {
		first.SetReadDeadline(time.Now().Add(20 * time.Second))
		if _, err := io.Copy(io.Discard, first); err != nil {
			return fmt.Errorf("the connection from before the Abort stayed open: %v", err)
		}
		return nil
	})
	send(RoundMsg{Round: 0, Seed: 1, Peer: 1, Attempt: 1})
	dialled("attempt 1, after the Abort")
	send(Abort{Round: 0})
	expect(AbortAck{})
}
