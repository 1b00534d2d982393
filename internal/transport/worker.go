package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

// ErrCrashed is returned by WorkerClient.Run when the coordinator's fault
// schedule kills this worker: the process tore down abruptly (as a real
// crash would) after flushing its last committed snapshot. Restart the
// worker with Resume set (cmd/worker -resume) to rejoin the training.
var ErrCrashed = errors.New("transport: worker crashed by fault injection (restart with -resume to rejoin)")

// WorkerClient runs one engine node over TCP: it registers with the
// coordinator, assembles its node/pattern/codecs from the broadcast scenario
// spec, trains locally, and sends encoded payloads to its per-round peers
// as one-way frames over direct worker-to-worker connections. For hub algorithms the
// last rank hosts the parameter server instead of training.
//
// Fault tolerance (DESIGN.md §3): with SnapshotPath set the worker persists
// a versioned snapshot of its committed round-boundary state, and a process
// restarted with Resume rejoins the training from it, bit-identically to a
// worker that had simply been excluded from the missed rounds. During a
// round the worker concurrently watches the coordinator channel for Abort
// (another worker died mid-round): it cancels the attempt, rolls back to the
// round-boundary state, and re-executes the coordinator's re-planned round.
type WorkerClient struct {
	// Logf receives progress lines; nil silences logging.
	Logf func(format string, args ...any)
	// SnapshotPath, when non-empty, persists the worker's state after every
	// committed round (atomic rename), enabling Resume after a crash.
	SnapshotPath string
	// Resume rejoins an in-flight training from SnapshotPath instead of
	// registering fresh: the worker reloads its rank, spec, and state from
	// the snapshot and sends a Rejoin handshake.
	Resume bool

	rank  int
	n     int // total node count (trainers + server for hub recipes)
	coord *Conn
	spec  []byte // the scenario spec's canonical bytes, as Welcome carried them

	model   *nn.Model
	node    engine.Node
	pattern engine.Pattern
	codecs  []engine.Codec

	peerLn net.Listener
	addrs  []string
	// maxPayload caps the body of an inbound payload frame, from what this
	// worker's own model can justify: no codec emits more words than the
	// sparse layout's two header words plus an index and a value per
	// parameter.
	maxPayload int
	// sendBuf is the round goroutine's outbound frame, reused across sends.
	sendBuf []byte
	// inbox buffers the data-plane frames the accept loop has drained until
	// the round goroutine's Recv claims them; probes carries the
	// measurement phase's connections the same loop accepted.
	inbox  inbox
	probes chan probeConn
	// sent and recvd count this round attempt's frames per peer and
	// direction — the Seq both endpoints of a directed pair agree on.
	sent, recvd []int
	// attempt is the current round's execution attempt (from RoundMsg).
	attempt int
	// phases is the round goroutine's reusable phase scratch.
	phases engine.PhaseState

	// aborting flags an in-flight round as cancelled; Send and Recv bail
	// out.
	aborting atomic.Bool

	// boundary is the in-memory round-boundary state captured before the
	// current round's compute, restored on abort; boundaryRound tags it.
	boundary      engine.RankSnapshot
	boundaryRound int
	// pendingSnap is the snapshot produced by the last successful round,
	// held back until the round commits (the coordinator moves on) so a
	// rolled-back attempt can never reach disk.
	pendingSnap *WorkerSnapshot

	// dieAtRound, when non-nil, makes the worker tear down abruptly upon
	// receiving the RoundMsg for that round — the unscheduled-crash test
	// hook (the coordinator is NOT told, exercising the detection path).
	dieAtRound *int
}

// recvResult is one message (or terminal error) from the coordinator reader.
type recvResult struct {
	msg any
	err error
}

// roundResult is the outcome of one round attempt run by the round goroutine.
type roundResult struct {
	rep engine.NodeReport
	err error
}

// peerError wraps a round failure with the peer a Send could not reach, so
// the coordinator can mark the right process dead.
type peerError struct {
	peer int
	err  error
}

func (e *peerError) Error() string { return e.err.Error() }
func (e *peerError) Unwrap() error { return e.err }

// errAborted marks a round attempt cancelled by the coordinator's Abort.
var errAborted = errors.New("transport: round attempt aborted")

// Rank returns the coordinator-assigned rank (valid after Run registers).
func (w *WorkerClient) Rank() int { return w.rank }

func (w *WorkerClient) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run connects to the coordinator at coordAddr, participates in the full
// training, and returns the node's final parameters. peerAddr is the
// address to listen on for peer frames ("127.0.0.1:0" for an ephemeral
// port).
func (w *WorkerClient) Run(coordAddr, peerAddr string) ([]float64, error) {
	// A resuming worker reads its snapshot before it touches the network: a
	// file it cannot resume from is its own error, not the coordinator's.
	var snap *WorkerSnapshot
	var spec *scenario.Spec
	var err error
	if w.Resume {
		if snap, spec, err = w.loadSnapshot(); err != nil {
			return nil, err
		}
	}
	w.peerLn, err = net.Listen("tcp", peerAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: worker peer listen: %w", err)
	}
	defer w.peerLn.Close()

	nc, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial coordinator: %w", err)
	}
	w.coord = NewConn(nc)
	defer w.coord.Close()

	if w.Resume {
		err = w.rejoin(snap, spec)
	} else {
		err = w.register()
	}
	if err != nil {
		return nil, err
	}
	defer w.servePeers()()

	// A dedicated reader owns the coordinator's receive side, so the main
	// loop can watch for Abort while a round is in flight.
	msgs := make(chan recvResult, 8)
	go func() {
		for {
			m, err := w.coord.Recv()
			msgs <- recvResult{msg: m, err: err}
			if err != nil {
				return
			}
		}
	}()

	for {
		in := <-msgs
		if in.err != nil {
			return nil, fmt.Errorf("transport: worker %d: %w", w.rank, in.err)
		}
		switch m := in.msg.(type) {
		case MeasureRequest:
			rep := w.measurePeers(m)
			if err := w.coord.Send(rep); err != nil {
				return nil, err
			}
		case RoundMsg:
			if err := w.handleRound(m, msgs); err != nil {
				return nil, err
			}
		case Abort:
			// The round already ended locally (RoundEnd sent, or this
			// worker sat the round out); roll back and acknowledge.
			if err := w.handleBoundaryAbort(m); err != nil {
				return nil, err
			}
		case CrashMsg:
			w.flushSnapshot()
			w.logf("worker %d: fault injection: crashing at round %d", w.rank, m.Round)
			w.coord.Close()
			w.peerLn.Close()
			return nil, ErrCrashed
		case CollectRequest:
			w.flushSnapshot()
			params := w.model.FlatParams(nil)
			if err := w.coord.Send(FinalModel{Params: tensor.AppendWords(make([]byte, 0, 8*len(params)), params)}); err != nil {
				return nil, err
			}
		case Done:
			w.flushSnapshot()
			w.logf("worker %d: done", w.rank)
			return w.model.FlatParams(nil), nil
		default:
			return nil, fmt.Errorf("transport: worker %d: unexpected %T", w.rank, in.msg)
		}
	}
}

// register performs the fresh Hello/Welcome handshake and builds the node.
func (w *WorkerClient) register() error {
	if err := w.coord.Send(Hello{ListenAddr: w.peerLn.Addr().String()}); err != nil {
		return err
	}
	msg, err := w.coord.Recv()
	if err != nil {
		return err
	}
	welcome, ok := msg.(Welcome)
	if !ok {
		return fmt.Errorf("transport: expected Welcome, got %T", msg)
	}
	w.rank = welcome.Rank
	w.n = welcome.N
	w.addrs = welcome.Addrs
	w.spec = welcome.Spec
	spec, err := scenario.Parse(w.spec)
	if err != nil {
		return fmt.Errorf("transport: worker %d: the coordinator's spec: %w", w.rank, err)
	}
	if err := w.buildNode(spec); err != nil {
		return err
	}
	w.boundaryRound = -1
	// The initial state is committed by definition: persist it so a crash
	// at round 0 is recoverable.
	if w.SnapshotPath != "" {
		snap, err := w.snapshotNow(0)
		if err != nil {
			return err
		}
		if err := SaveWorkerSnapshot(w.SnapshotPath, snap); err != nil {
			return err
		}
	}
	return nil
}

// loadSnapshot reads the snapshot a resuming worker restarts from, and the
// spec it carries.
func (w *WorkerClient) loadSnapshot() (*WorkerSnapshot, *scenario.Spec, error) {
	if w.SnapshotPath == "" {
		return nil, nil, fmt.Errorf("transport: Resume requires SnapshotPath")
	}
	snap, err := LoadWorkerSnapshot(w.SnapshotPath)
	if err != nil {
		return nil, nil, err
	}
	spec, err := scenario.Parse(snap.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: snapshot %s holds no scenario spec (was it written before workers received specs?): %w", w.SnapshotPath, err)
	}
	return snap, spec, nil
}

// rejoin performs the Rejoin handshake for the loaded snapshot and restores
// its state.
func (w *WorkerClient) rejoin(snap *WorkerSnapshot, spec *scenario.Spec) error {
	w.rank = snap.Rank
	w.spec = snap.Spec
	if err := w.coord.Send(Rejoin{Rank: snap.Rank, NextRound: snap.NextRound, ListenAddr: w.peerLn.Addr().String()}); err != nil {
		return err
	}
	msg, err := w.coord.Recv()
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case RejoinAck:
		w.n = m.N
		w.addrs = m.Addrs
	case RejoinNack:
		return fmt.Errorf("transport: rejoin rejected: %s", m.Reason)
	default:
		return fmt.Errorf("transport: expected RejoinAck, got %T", msg)
	}
	if err := w.buildNode(spec); err != nil {
		return err
	}
	if err := engine.RestoreRank(w.node, w.codecs[w.rank], snap.State); err != nil {
		return fmt.Errorf("transport: worker %d restore: %w", w.rank, err)
	}
	w.boundaryRound = -1
	w.logf("worker %d: rejoined from snapshot (state as of round %d)", w.rank, snap.NextRound)
	return nil
}

// buildNode assembles this rank's model, node, pattern, and codec table from
// the spec with the functions an in-process run uses — identically whether
// registering fresh or resuming. It builds one model and one shard, never
// the fleet.
func (w *WorkerClient) buildNode(spec *scenario.Spec) error {
	rec := spec.Recipe()
	if rec.Nodes() != w.n {
		return fmt.Errorf("transport: worker %d: scenario %s runs %d processes, the coordinator registered %d", w.rank, spec.Name, rec.Nodes(), w.n)
	}
	var err error
	if w.model, err = spec.NewModel(); err != nil {
		return err
	}
	w.pattern = rec.Pattern()
	w.codecs = rec.Codecs(w.model.ParamCount())
	w.maxPayload = 8 * (2 + 2*w.model.ParamCount())
	if rec.Hub() && w.rank == rec.ServerRank() {
		w.node = rec.NewNode(w.rank, w.model, nil, nil)
		w.logf("worker %d: parameter server for %q (%d params)", w.rank, rec.Algo, w.model.ParamCount())
	} else {
		shards, _ := spec.Dataset()
		w.node = rec.NewNode(w.rank, w.model, shards[w.rank], nil)
		w.logf("worker %d: ready for %q (%d params, %d local samples)",
			w.rank, rec.Algo, w.model.ParamCount(), shards[w.rank].Len())
	}
	// The node and its codec draw the round's mask once between them.
	engine.ShareMasks([]engine.Node{w.node}, w.codecs)
	return nil
}

// snapshotNow captures the current state as an on-disk snapshot valid from
// nextRound.
func (w *WorkerClient) snapshotNow(nextRound int) (*WorkerSnapshot, error) {
	st, err := engine.CaptureRank(w.node, w.codecs[w.rank])
	if err != nil {
		return nil, err
	}
	return &WorkerSnapshot{
		Version:   WorkerSnapshotVersion,
		Rank:      w.rank,
		NextRound: nextRound,
		Spec:      w.spec,
		State:     st,
	}, nil
}

// flushSnapshot persists the held-back snapshot of the last successful
// round, now known to be committed.
func (w *WorkerClient) flushSnapshot() {
	if w.pendingSnap == nil || w.SnapshotPath == "" {
		return
	}
	if err := SaveWorkerSnapshot(w.SnapshotPath, w.pendingSnap); err != nil {
		w.logf("worker %d: snapshot write failed: %v", w.rank, err)
	}
	w.pendingSnap = nil
}

// handleRound executes one round attempt from the coordinator's control
// message, watching msgs for a concurrent Abort.
func (w *WorkerClient) handleRound(m RoundMsg, msgs <-chan recvResult) error {
	if m.Addrs != nil {
		w.addrs = m.Addrs
	}
	// A RoundMsg for a later round commits the held-back snapshot.
	if w.pendingSnap != nil && m.Round >= w.pendingSnap.NextRound {
		w.flushSnapshot()
	}
	if w.dieAtRound != nil && *w.dieAtRound == m.Round {
		w.coord.Close()
		w.peerLn.Close()
		return ErrCrashed
	}
	if m.Active != nil && (w.rank >= len(m.Active) || !m.Active[w.rank]) {
		// Not chosen this round: stay silent (the coordinator collects
		// reports from the active set only) and keep state frozen.
		w.boundaryRound = -1
		return nil
	}

	// Capture the round-boundary state for a possible rollback, then run
	// the attempt in its own goroutine so Abort stays deliverable.
	var err error
	w.boundary, err = engine.CaptureRank(w.node, w.codecs[w.rank])
	if err != nil {
		return err
	}
	w.boundaryRound = m.Round
	w.attempt = m.Attempt
	clear(w.sent)
	clear(w.recvd)
	w.aborting.Store(false)
	w.inbox.begin(m.Round, m.Attempt)

	plan := core.RoundPlan{Round: m.Round, Seed: m.Seed, Active: m.Active, Peer: peerTable(m.Peer, w.rank, w.n)}
	ctx := engine.RoundContext{Round: m.Round, Seed: m.Seed, Self: w.rank, N: w.n, Plan: plan}
	done := make(chan roundResult, 1)
	go func() {
		rep, err := engine.WorkerRound(w.node, w.pattern, w.codecs, peerDialer{w}, &w.phases, ctx)
		done <- roundResult{rep: rep, err: err}
	}()

	for {
		select {
		case res := <-done:
			switch {
			case w.aborting.Load():
				return w.rollbackAndAck(m.Round)
			case res.err != nil:
				// A peer was unreachable: report it, then wait for the
				// coordinator's Abort before rolling back.
				peer := -1
				var pe *peerError
				if errors.As(res.err, &pe) {
					peer = pe.peer
				}
				w.logf("worker %d: round %d attempt %d failed (peer %d): %v", w.rank, m.Round, m.Attempt, peer, res.err)
				if err := w.coord.Send(RoundFailed{Rank: w.rank, Round: m.Round, Peer: peer, Reason: res.err.Error()}); err != nil {
					return err
				}
				if err := w.awaitAbort(m.Round, msgs); err != nil {
					return err
				}
				return w.rollbackAndAck(m.Round)
			default:
				end := RoundEnd{
					Rank:       w.rank,
					Round:      m.Round,
					Attempt:    m.Attempt,
					Loss:       res.rep.Loss,
					Trained:    res.rep.Trained,
					PayloadLen: res.rep.PayloadLen,
					Flows:      res.rep.Flows,
				}
				if err := w.coord.Send(end); err != nil {
					return err
				}
				if w.SnapshotPath != "" {
					snap, err := w.snapshotNow(m.Round + 1)
					if err != nil {
						return err
					}
					w.pendingSnap = snap
				}
				return nil
			}
		case in := <-msgs:
			if in.err != nil {
				return fmt.Errorf("transport: worker %d: %w", w.rank, in.err)
			}
			ab, ok := in.msg.(Abort)
			if !ok || ab.Round != m.Round {
				return fmt.Errorf("transport: worker %d: unexpected %T during round %d", w.rank, in.msg, m.Round)
			}
			// Cancel the attempt: flag it, then wake the round goroutine if
			// it is blocked in Recv. Keep looping: it will fail out shortly.
			w.aborting.Store(true)
			w.inbox.wake()
		}
	}
}

// handleBoundaryAbort rolls back a round whose attempt already completed
// locally (or never involved this worker) and acknowledges.
func (w *WorkerClient) handleBoundaryAbort(m Abort) error {
	if w.pendingSnap != nil && w.pendingSnap.NextRound == m.Round+1 {
		// The aborted attempt's snapshot must never commit.
		w.pendingSnap = nil
	}
	if w.boundaryRound == m.Round {
		return w.rollbackAndAck(m.Round)
	}
	return w.coord.Send(AbortAck{Rank: w.rank, Round: m.Round})
}

// awaitAbort consumes coordinator messages until the expected Abort arrives.
func (w *WorkerClient) awaitAbort(round int, msgs <-chan recvResult) error {
	for {
		in := <-msgs
		if in.err != nil {
			return fmt.Errorf("transport: worker %d: %w", w.rank, in.err)
		}
		if ab, ok := in.msg.(Abort); ok && ab.Round == round {
			return nil
		}
	}
}

// rollbackAndAck restores the round-boundary state and acknowledges the
// abort. The attempt's buffered frames go stale and are dropped when the
// re-planned attempt begins.
func (w *WorkerClient) rollbackAndAck(round int) error {
	if w.boundaryRound == round {
		if err := engine.RestoreRank(w.node, w.codecs[w.rank], w.boundary); err != nil {
			return fmt.Errorf("transport: worker %d rollback: %w", w.rank, err)
		}
	}
	if w.pendingSnap != nil && w.pendingSnap.NextRound == round+1 {
		w.pendingSnap = nil
	}
	w.boundaryRound = -1
	return w.coord.Send(AbortAck{Rank: w.rank, Round: round})
}

// peerTable reconstructs the pairwise peer table from this worker's own
// assignment (only Peer[self] and the symmetric entry are ever read by the
// pairwise pattern; other patterns ignore the table).
func peerTable(peer, self, n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = -1
	}
	if self < n {
		t[self] = peer
	}
	if peer >= 0 && peer < n {
		t[peer] = self
	}
	return t
}

// peerDialer is the worker's engine.Transport, so the canonical phase
// program drives the TCP deployment: the round logic lives in
// internal/engine, and only the one-way frames below are transport-specific.
type peerDialer struct{ w *WorkerClient }

// Send implements engine.Transport: dial the peer and write one payload
// frame — the header and the words, raw. The peer's accept loop drains it
// whether or not its round goroutine has reached the matching Recv, so two
// workers sending to each other first cannot deadlock on full socket buffers.
func (d peerDialer) Send(round, self, peer int, payload []float64) error {
	w := d.w
	if w.aborting.Load() {
		return errAborted
	}
	seq := w.sent[peer]
	w.sent[peer]++
	nc, err := net.Dial("tcp", w.addrs[peer])
	if err != nil {
		return &peerError{peer: peer, err: fmt.Errorf("transport: worker %d dial peer %d: %w", self, peer, err)}
	}
	defer nc.Close()
	w.sendBuf = tensor.AppendWords(engine.BeginFrame(w.sendBuf), payload)
	engine.SealFrame(w.sendBuf, engine.FrameHeader{Kind: engine.FramePayload, From: self, Round: round, Attempt: w.attempt, Seq: seq})
	if _, err := nc.Write(w.sendBuf); err != nil {
		return &peerError{peer: peer, err: fmt.Errorf("transport: worker %d send to peer %d: %w", self, peer, err)}
	}
	return nil
}

// Recv implements engine.Transport: claim the peer's next frame of this
// round attempt from the inbox, waiting for the accept loop to deliver it.
func (d peerDialer) Recv(round, self, peer int) ([]float64, error) {
	w := d.w
	seq := w.recvd[peer]
	w.recvd[peer]++
	return w.inbox.take(peer, seq, &w.aborting)
}

// maxProbeBytes is the ceiling on a measurement probe's body.
const maxProbeBytes = 64 << 20

// maxBody caps an inbound frame's body by kind, before room is made for it.
func (w *WorkerClient) maxBody(kind engine.FrameKind) int {
	switch kind {
	case engine.FramePayload:
		return w.maxPayload
	case engine.FrameProbe:
		return maxProbeBytes
	}
	return 0
}

// probeConn is a measurement-phase connection the accept loop took in: the
// probe already read (who sent it, how many bytes), and when the connection
// was accepted.
type probeConn struct {
	conn  net.Conn
	from  int
	size  int
	start time.Time
}

// servePeers starts the accept loop that owns the peer listener from here
// on. The returned stop closes the listener and waits for the loop to exit
// (it closes probes on its way out), releasing any probe nobody took.
func (w *WorkerClient) servePeers() (stop func()) {
	w.inbox.changed = make(chan struct{}, 1)
	w.inbox.frames = make([][]PeerPayload, w.n)
	w.sent, w.recvd = make([]int, w.n), make([]int, w.n)
	// Sized to the sends: each lower rank probes this worker once.
	w.probes = make(chan probeConn, w.n)
	go w.acceptLoop()
	return func() {
		w.peerLn.Close()
		for pc := range w.probes {
			pc.conn.Close()
		}
	}
}

// acceptLoop drains every inbound connection's single frame, independently
// of the round goroutine. A frame is verified — header, length cap, checksum,
// then sender rank, kind and whole words — before anything is filed; one
// that fails is logged with the reason and counted, and the connection
// dropped. It ends when the listener closes, failing any Recv still waiting.
func (w *WorkerClient) acceptLoop() {
	defer close(w.probes)
	var buf []byte // the loop reads one frame at a time
	for {
		nc, err := w.peerLn.Accept()
		if err != nil {
			w.inbox.fail(fmt.Errorf("transport: worker %d accept: %w", w.rank, err))
			return
		}
		start := time.Now()
		h, body, err := engine.ReadFrame(nc, buf, w.maxBody)
		if err == nil {
			buf = body[:0]
			var kept bool
			if kept, err = w.file(nc, h, body, start); kept {
				continue
			}
		}
		if err != nil {
			w.logf("worker %d: rejected frame from %s: %v", w.rank, nc.RemoteAddr(), err)
			obs.Current().TransportM().FramesRejectedTotal.Inc()
		}
		nc.Close()
	}
}

// file hands an intact frame on: a payload's words to the inbox, a
// measurement probe to measurePeers together with its connection (the echo
// travels back on it), which is then measurePeers' to close.
func (w *WorkerClient) file(nc net.Conn, h engine.FrameHeader, body []byte, start time.Time) (kept bool, err error) {
	if h.From >= w.n {
		return false, fmt.Errorf("transport: frame from rank %d of %d", h.From, w.n)
	}
	switch h.Kind {
	case engine.FramePayload:
		vals, err := tensor.Words(body)
		if err != nil {
			return false, err
		}
		w.inbox.put(PeerPayload{Round: h.Round, From: h.From, Seq: h.Seq, Attempt: h.Attempt, Vals: vals})
	case engine.FrameProbe:
		select {
		case w.probes <- probeConn{conn: nc, from: h.From, size: len(body), start: start}:
			return true, nil
		default: // more probes than ranks: not this fleet's
		}
	default:
		return false, fmt.Errorf("transport: frame of kind %d on the peer listener", h.Kind)
	}
	return false, nil
}

// inbox holds the data-plane frames that have arrived but not been claimed.
// Frames of one sender can overtake each other (each travels on its own
// connection), so take matches on the frame's sequence number, never on
// arrival order; and frames can arrive early (a peer already in the next
// round) or late (an aborted attempt's), so everything is keyed by (round,
// attempt) and anything older than the attempt in progress is dropped.
type inbox struct {
	mu             sync.Mutex
	frames         [][]PeerPayload // per sender, arrival order
	round, attempt int             // the attempt in progress
	err            error           // the accept loop's terminal error
	// changed holds a token whenever something happened since take last
	// looked: a frame arrived, the attempt was cancelled, or the accept loop
	// died. One slot suffices — the round goroutine is the only waiter, and
	// it re-checks everything on each token.
	changed chan struct{}
}

// wake makes a blocked take look again.
func (b *inbox) wake() {
	select {
	case b.changed <- struct{}{}:
	default:
	}
}

func (b *inbox) stale(pp PeerPayload) bool {
	return pp.Round < b.round || (pp.Round == b.round && pp.Attempt < b.attempt)
}

// begin opens a round attempt and drops the frames it makes stale.
func (b *inbox) begin(round, attempt int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.round, b.attempt = round, attempt
	for from, list := range b.frames {
		b.frames[from] = slices.DeleteFunc(list, b.stale)
	}
}

func (b *inbox) put(pp PeerPayload) {
	b.mu.Lock()
	if !b.stale(pp) {
		b.frames[pp.From] = append(b.frames[pp.From], pp)
	}
	b.mu.Unlock()
	b.wake()
}

// take blocks until sender from's frame seq of the attempt in progress has
// arrived and returns its payload; setting stop and calling wake cancels the
// wait.
func (b *inbox) take(from, seq int, stop *atomic.Bool) ([]float64, error) {
	for {
		if stop.Load() {
			return nil, errAborted
		}
		b.mu.Lock()
		for i, pp := range b.frames[from] {
			if pp.Round == b.round && pp.Attempt == b.attempt && pp.Seq == seq {
				b.frames[from] = slices.Delete(b.frames[from], i, i+1)
				b.mu.Unlock()
				return pp.Vals, nil
			}
		}
		err := b.err
		b.mu.Unlock()
		if err != nil {
			return nil, err
		}
		<-b.changed
	}
}

func (b *inbox) fail(err error) {
	b.mu.Lock()
	b.err = err
	b.mu.Unlock()
	b.wake()
}
