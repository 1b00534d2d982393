package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/obs"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

// ErrCrashed is returned by WorkerClient.Run when the coordinator's fault
// schedule kills this worker: the process tore down abruptly (as a real
// crash would) after writing the snapshot of the boundary it was killed at.
// Restart the worker with Resume set (cmd/worker -resume) to rejoin the
// training.
var ErrCrashed = errors.New("transport: worker crashed by fault injection (restart with -resume to rejoin)")

// WorkerClient runs one engine node over TCP: it registers with the
// coordinator, assembles its node/pattern/codecs from the broadcast scenario
// spec, trains locally, and sends encoded payloads to its per-round peers
// as one-way frames over direct worker-to-worker connections — one
// long-lived connection per peer and direction, dialled by the first frame
// that needs it and redialled after an Abort or a new address book. For hub
// algorithms the last rank hosts the parameter server instead of training.
//
// Fault tolerance (DESIGN.md §3): a RoundMsg for round t proves every
// earlier round committed, so the state it finds is the rank's committed
// round-boundary state, kept once per round whether or not the rank is
// chosen. It is what an Abort rolls back to (another worker died mid-round:
// the worker cancels any attempt in flight, restores it, and re-executes the
// coordinator's re-planned round), and with SnapshotPath set it is also the
// versioned snapshot on disk, from which a process restarted with Resume
// rejoins the training bit-identically to a worker that had simply been
// excluded from the missed rounds. Each boundary's capture is written into
// the storage of the one before it, so a round allocates no rollback blob.
type WorkerClient struct {
	// Logf receives progress lines; nil silences logging.
	Logf func(format string, args ...any)
	// SnapshotPath, when non-empty, persists the worker's state at every
	// round boundary, rounds it sits out included (atomic rename), enabling
	// Resume after a crash.
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
	// sendBuf is send's outbound frame, reused across sends.
	sendBuf []byte
	// out holds the one connection to each peer, dialled on first use.
	out outbound
	// inbox buffers the data-plane frames the connection readers have
	// drained — payloads and measurement probes alike — until Recv claims
	// them.
	inbox inbox
	// sent and recvd count this round attempt's frames (before round 0, the
	// measurement phase's) per peer and direction — the Seq both endpoints
	// of a directed pair agree on.
	sent, recvd []int
	// attempt is the current round's execution attempt (from RoundMsg).
	attempt int
	// phases is the round goroutine's reusable phase scratch.
	phases engine.PhaseState

	// aborting flags an in-flight round as cancelled; Send and Recv bail
	// out.
	aborting atomic.Bool

	// snap is the last committed round-boundary state, valid from round
	// snap.NextRound: the one rollback target, and the file at SnapshotPath.
	snap *WorkerSnapshot

	// dieAtRound, when non-nil, makes the worker tear down abruptly upon
	// receiving the RoundMsg for that round, after committing the state it
	// finds — the unscheduled-crash test hook (the coordinator is NOT told,
	// exercising the detection path).
	dieAtRound *int
}

// recvResult is one message (or terminal error) from the coordinator reader.
type recvResult struct {
	msg any
	err error
}

// roundResult is the outcome of one round attempt run by the round goroutine.
type roundResult struct {
	m   RoundMsg
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

	if w.coord, err = dialConn(coordAddr); err != nil {
		return nil, fmt.Errorf("transport: dial coordinator: %w", err)
	}
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
	// loop can take an Abort while a round attempt is in flight.
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

	var running <-chan roundResult // the attempt in flight, if any
	for {
		var in recvResult
		select {
		case res := <-running:
			running = nil
			if err := w.report(res); err != nil {
				return nil, err
			}
			continue
		case in = <-msgs:
		}
		if in.err != nil {
			return nil, fmt.Errorf("transport: worker %d: %w", w.rank, in.err)
		}
		if _, ok := in.msg.(Abort); running != nil && !ok {
			return nil, fmt.Errorf("transport: worker %d: unexpected %T during round %d", w.rank, in.msg, w.snap.NextRound)
		}
		switch m := in.msg.(type) {
		case MeasureRequest:
			rep := w.measurePeers(m)
			if err := w.coord.Send(rep); err != nil {
				return nil, err
			}
		case RoundMsg:
			if running, err = w.startRound(m); err != nil {
				return nil, err
			}
		case Abort:
			// The one rollback: cancel the attempt in flight (Send and Recv
			// bail out), then restore the state the round found. A rank the
			// coordinator aborted before its RoundMsg went out has nothing
			// to undo. The peer connections go too: one may lead to the
			// rank that died, and the re-planned attempt redials.
			if running != nil {
				w.aborting.Store(true)
				w.inbox.wake()
				<-running
				running = nil
			}
			w.out.closeAll()
			if w.snap.NextRound == m.Round {
				if err := engine.RestoreRank(w.node, w.codecs[w.rank], w.snap.State); err != nil {
					return nil, fmt.Errorf("transport: worker %d rollback: %w", w.rank, err)
				}
			}
			if err := w.coord.Send(AbortAck{Rank: w.rank, Round: m.Round}); err != nil {
				return nil, err
			}
		case CrashMsg:
			if err := w.commit(m.Round); err != nil {
				return nil, err
			}
			w.logf("worker %d: fault injection: crashing at round %d", w.rank, m.Round)
			w.coord.Close()
			w.peerLn.Close()
			return nil, ErrCrashed
		case CollectRequest:
			params := w.model.FlatParams(nil)
			if err := w.coord.Send(FinalModel{Params: tensor.AppendWords(make([]byte, 0, 8*len(params)), params)}); err != nil {
				return nil, err
			}
		case Done:
			// The last RoundMsg was for round snap.NextRound, and it
			// committed.
			if err := w.commit(w.snap.NextRound + 1); err != nil {
				return nil, err
			}
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
	w.coord.setLimits(w.n, w.model.ParamCount())
	// The initial state is committed by definition: a crash at round 0 is
	// recoverable.
	return w.commit(0)
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
		return nil, nil, fmt.Errorf("transport: snapshot %s holds no scenario spec: %w", w.SnapshotPath, err)
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
	w.coord.setLimits(w.n, w.model.ParamCount())
	if err := engine.RestoreRank(w.node, w.codecs[w.rank], snap.State); err != nil {
		return fmt.Errorf("transport: worker %d restore: %w", w.rank, err)
	}
	w.snap = snap
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

// commit records the state this rank carries into round next, known to be
// committed, as the one rollback target and, with SnapshotPath set, the
// snapshot on disk; a state already held for next (a re-planned attempt) is
// kept. The capture is written into the previous boundary's blob: nothing
// holds that once round next commits — an Abort restores the latest
// boundary only, and the file is written before commit returns — and a
// capture that fails ends the worker. A failed write is logged: the worker
// trains on, and the file keeps the last snapshot written.
func (w *WorkerClient) commit(next int) error {
	if w.snap == nil {
		w.snap = &WorkerSnapshot{Version: WorkerSnapshotVersion, Rank: w.rank, Spec: w.spec}
	} else if w.snap.NextRound == next {
		return nil
	}
	st, err := engine.CaptureRank(w.node, w.codecs[w.rank], w.snap.State)
	if err != nil {
		return err
	}
	w.snap.NextRound, w.snap.State = next, st
	if w.SnapshotPath != "" {
		if err := SaveWorkerSnapshot(w.SnapshotPath, w.snap); err != nil {
			w.logf("worker %d: snapshot write failed: %v", w.rank, err)
		}
	}
	return nil
}

// startRound commits the state round m.Round finds and, when this rank is
// chosen, starts the attempt on the round goroutine, so an Abort stays
// deliverable; the returned channel carries its outcome. A rank sitting the
// round out gets nil.
func (w *WorkerClient) startRound(m RoundMsg) (<-chan roundResult, error) {
	if m.Addrs != nil {
		w.addrs = m.Addrs
		w.out.closeAll()
	}
	if err := w.commit(m.Round); err != nil {
		return nil, err
	}
	if w.dieAtRound != nil && *w.dieAtRound == m.Round {
		w.coord.Close()
		w.peerLn.Close()
		return nil, ErrCrashed
	}
	if m.Active != nil && (w.rank >= len(m.Active) || !m.Active[w.rank]) {
		// Not chosen this round: stay silent (the coordinator collects
		// reports from the active set only) and keep state frozen.
		return nil, nil
	}
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
		done <- roundResult{m: m, rep: rep, err: err}
	}()
	return done, nil
}

// report sends the coordinator an attempt's outcome: its RoundEnd, or a
// RoundFailed naming the peer a Send could not reach, to which the
// coordinator answers with the Abort that rolls the attempt back.
func (w *WorkerClient) report(res roundResult) error {
	m := res.m
	if res.err != nil {
		peer := -1
		var pe *peerError
		if errors.As(res.err, &pe) {
			peer = pe.peer
		}
		w.logf("worker %d: round %d attempt %d failed (peer %d): %v", w.rank, m.Round, m.Attempt, peer, res.err)
		return w.coord.Send(RoundFailed{Rank: w.rank, Round: m.Round, Peer: peer, Reason: res.err.Error()})
	}
	return w.coord.Send(RoundEnd{
		Rank:       w.rank,
		Round:      m.Round,
		Attempt:    m.Attempt,
		Loss:       res.rep.Loss,
		Trained:    res.rep.Trained,
		PayloadLen: res.rep.PayloadLen,
		Flows:      res.rep.Flows,
	})
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

// Send implements engine.Transport: one payload frame to peer.
func (d peerDialer) Send(round, self, peer int, payload []float64) error {
	return d.w.send(engine.FramePayload, round, peer, payload)
}

// send writes one frame of the given kind — the header and the words, raw —
// on the connection to peer, dialling it if there is none, numbered with the
// pair's next seq of the attempt in progress. The peer reads every
// connection on a goroutine of its own, whether or not it has reached the
// matching Recv, so two workers sending to each other first cannot deadlock
// on full socket buffers. A failed write closes the connection, and the
// next send to that peer redials.
func (w *WorkerClient) send(kind engine.FrameKind, round, peer int, words []float64) error {
	if w.aborting.Load() {
		return errAborted
	}
	seq := w.sent[peer]
	w.sent[peer]++
	w.sendBuf = tensor.AppendWords(engine.BeginFrame(w.sendBuf), words)
	engine.SealFrame(w.sendBuf, engine.FrameHeader{Kind: kind, From: w.rank, Round: round, Attempt: w.attempt, Seq: seq})
	nc, err := w.out.conn(peer, w.addrs[peer])
	if err != nil {
		return &peerError{peer: peer, err: fmt.Errorf("transport: worker %d dial peer %d: %w", w.rank, peer, err)}
	}
	if _, err := nc.Write(w.sendBuf); err != nil {
		w.out.drop(peer, nc)
		return &peerError{peer: peer, err: fmt.Errorf("transport: worker %d send to peer %d: %w", w.rank, peer, err)}
	}
	return nil
}

// Recv implements engine.Transport: claim the peer's next frame of this
// round attempt from the inbox, waiting for a reader to deliver it.
func (d peerDialer) Recv(round, self, peer int) ([]float64, error) {
	w := d.w
	seq := w.recvd[peer]
	w.recvd[peer]++
	return w.inbox.take(peer, seq, &w.aborting)
}

// outbound is a worker's connections to its peers, one per peer, each
// dialled by the first Send that needs it. The round goroutine sends on
// them; between attempts the main loop closes them all (an Abort, a new
// address book), and the data plane's stop closes them for good.
type outbound struct {
	mu     sync.Mutex
	conns  map[int]net.Conn
	closed bool
}

// conn returns the connection to peer, dialling addr when there is none.
func (o *outbound) conn(peer int, addr string) (net.Conn, error) {
	o.mu.Lock()
	nc, closed := o.conns[peer], o.closed
	o.mu.Unlock()
	switch {
	case closed:
		return nil, net.ErrClosed
	case nc != nil:
		return nc, nil
	}
	// Dialled without the lock, so closeAll never waits on a connect.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		nc.Close()
		return nil, net.ErrClosed
	}
	if o.conns == nil {
		o.conns = make(map[int]net.Conn)
	}
	o.conns[peer] = nc
	return nc, nil
}

// drop closes nc, peer's connection until a write on it failed.
func (o *outbound) drop(peer int, nc net.Conn) {
	o.mu.Lock()
	if o.conns[peer] == nc {
		delete(o.conns, peer)
	}
	o.mu.Unlock()
	nc.Close()
}

// closeAll closes every connection; later Sends redial.
func (o *outbound) closeAll() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for peer, nc := range o.conns {
		nc.Close()
		delete(o.conns, peer)
	}
}

// shut closes every connection and refuses to dial again.
func (o *outbound) shut() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.closeAll()
}

// maxProbeBytes is the ceiling on a measurement probe's body.
const maxProbeBytes = 64 << 20

// maxBody caps an inbound frame's body by kind, before room is made for it;
// the peer listener takes payloads and probes only.
func (w *WorkerClient) maxBody(h engine.FrameHeader) (int, error) {
	switch h.Kind {
	case engine.FramePayload:
		return w.maxPayload, nil
	case engine.FrameProbe:
		return maxProbeBytes, nil
	}
	return 0, fmt.Errorf("transport: frame of kind %d on the peer listener", h.Kind)
}

// inbound is the set of connections the accept loop took in whose readers
// still own them.
type inbound struct {
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	readers sync.WaitGroup
}

func (in *inbound) forget(nc net.Conn) {
	in.mu.Lock()
	delete(in.conns, nc)
	in.mu.Unlock()
}

// closeAll closes every connection a reader still owns and waits for all
// the readers to exit. The accept loop must have exited.
func (in *inbound) closeAll() {
	in.mu.Lock()
	for nc := range in.conns {
		nc.Close()
	}
	in.mu.Unlock()
	in.readers.Wait()
}

// servePeers starts the accept loop that owns the peer listener from here
// on. The returned stop closes the listener and every connection in either
// direction, and waits for the loop and every reader to exit.
func (w *WorkerClient) servePeers() (stop func()) {
	w.inbox.changed = make(chan struct{}, 1)
	w.inbox.frames = make([][]PeerPayload, w.n)
	w.sent, w.recvd = make([]int, w.n), make([]int, w.n)
	in := &inbound{conns: make(map[net.Conn]struct{})}
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		w.acceptLoop(in)
	}()
	return func() {
		w.peerLn.Close()
		<-accepting
		in.closeAll()
		w.out.shut()
	}
}

// acceptLoop starts one reader per inbound connection, so a peer that
// stalls inside a frame holds up nobody else. It ends when the listener
// closes, failing any Recv still waiting.
func (w *WorkerClient) acceptLoop(in *inbound) {
	for {
		nc, err := w.peerLn.Accept()
		if err != nil {
			w.inbox.fail(fmt.Errorf("transport: worker %d accept: %w", w.rank, err))
			return
		}
		in.mu.Lock()
		in.conns[nc] = struct{}{}
		in.mu.Unlock()
		in.readers.Add(1)
		go func() {
			defer in.readers.Done()
			w.readPeer(nc)
			nc.Close()
			in.forget(nc)
		}()
	}
}

// readPeer drains one inbound connection frame by frame, independently of
// the round goroutine, and files each frame in the inbox: a payload and a
// measurement probe alike, claimed by Recv. Each body is read into storage
// of its own, sized exactly from its header: a buffer kept per connection
// would hold a payload's worth of memory for every idle peer connection, up
// to n−1 of them. A connection speaks for one rank, the one its first frame
// names. Each frame is verified — header, length cap, checksum, then sender
// rank and whole words — before anything is filed; one that fails, or names
// another sender than the connection's, is logged with the reason and
// counted, and ends the connection, as does a stream torn inside a frame.
// The peer closing at a frame boundary, or stop closing the connection, is a
// normal end.
func (w *WorkerClient) readPeer(nc net.Conn) {
	from := -1
	for {
		h, body, err := engine.ReadFrame(nc, nil, w.maxBody)
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return
		}
		var vals []float64
		switch {
		case err != nil:
		case from >= 0 && h.From != from:
			err = fmt.Errorf("transport: frame from rank %d on rank %d's connection", h.From, from)
		case h.From >= w.n:
			err = fmt.Errorf("transport: frame from rank %d of %d", h.From, w.n)
		default:
			vals, err = tensor.Words(body)
		}
		if err != nil {
			w.logf("worker %d: rejected frame from %s: %v", w.rank, nc.RemoteAddr(), err)
			obs.Current().TransportM().FramesRejectedTotal.Inc()
			return
		}
		from = h.From
		w.inbox.put(PeerPayload{Round: h.Round, From: h.From, Seq: h.Seq, Attempt: h.Attempt, Vals: vals})
	}
}

// inbox holds the data-plane frames that have arrived but not been claimed.
// One connection delivers a sender's frames in order, but a redial opens
// another, whose reader can overtake the old one's; so take matches on the
// frame's sequence number, never on arrival order. Frames can also arrive
// early (a peer already in the next round) or late (an aborted attempt's),
// so everything is keyed by (round, attempt) and anything older than the
// attempt in progress is dropped.
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
