// Package transport implements the deployable training system over TCP —
// algorithm-agnostic since the Pattern/Codec generalization: a coordinator
// server (Algorithm 1) that registers workers, broadcasts the per-round
// control messages (peer assignment / participation set + mask seed — never
// model payloads), and worker clients that assemble their engine node from
// the run's scenario spec and send encoded payloads peer-to-peer to each
// other's listeners. Any synchronous recipe deploys: SAPS's masked pairwise
// gossip (and RandomChoose), the ring and all-gather decentralized
// baselines, and the hub schemes (the last registered rank becomes the
// parameter server).
//
// What a fleet runs is a scenario.Spec, the same description an in-process
// run reads: Welcome carries its canonical JSON bytes (Spec.Canonical), and
// every worker parses them and builds its own rank with the functions the
// in-process run uses (Spec.Recipe, NewModel, Dataset) — the training data
// never crosses the network. A worker snapshot keeps the same bytes.
//
// Every byte either plane moves is an engine frame: a fixed checksummed header
// and a body the header measures. Control-plane messages (coordinator ↔
// worker) are small and typed and travel as frames of kind FrameControl over
// one long-lived Conn per worker; the message type and its body layout are
// this package's (below), and each type's body is capped before any room is
// made for it. The data plane (worker ↔ worker) carries the codec's wire
// words as raw little-endian float64s — for SAPS the packed masked values,
// whose indices travel as a 64-bit seed inside the control message,
// reproducing the paper's wire economics. Worker snapshot files are frames
// too (snapshot.go).
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/tensor"
)

// TaskSpec is the older description of a fleet's task, kept only for the
// benchmark's tcp8 workload (benchmark/workloads/tcp8.json decodes into it).
// Spec converts it into a scenario spec, and its methods read the converted
// spec; a CoordinatorServer given N, Task and Gossip instead of a Spec runs
// the conversion. It goes once tcp8 is a scenario spec.
type TaskSpec struct {
	Arch     string // the model family: mlp, mnist-cnn, cifar-cnn or resnet
	C, H, W  int
	Classes  int
	Hidden   []int  // the MLP's hidden widths
	Samples  int    // training samples across all workers
	DataSeed uint64 // draws the data (0: Seed); DataSeed+1 draws the split
	NonIID   bool   // the label split instead of the IID one

	LR          float64
	Batch       int
	Compression float64
	LocalSteps  int
	Rounds      int
	Seed        uint64
	Algo        string // empty means saps
}

// Spec converts the task for n trainers under Algorithm 3's thresholds g,
// which a spec carries for saps only. The data block is this type's own
// recipe — pixel noise 0.35, a fifth of the samples held out, the split
// seeded by DataSeed+1 — so a converted task trains on the same bits.
func (t TaskSpec) Spec(n int, g GossipConfig) *scenario.Spec {
	algo := t.Algo
	if algo == "" {
		algo = "saps"
	}
	part := &scenario.PartitionSpec{Kind: "iid", Seed: t.DataSeed + 1}
	if t.NonIID {
		part.Kind = "label"
	}
	s := &scenario.Spec{
		SchemaVersion: scenario.SpecSchemaVersion,
		Name:          "task",
		Algo:          algo,
		Nodes:         n,
		Rounds:        t.Rounds,
		Seed:          t.Seed,
		LR:            t.LR,
		Batch:         t.Batch,
		LocalSteps:    t.LocalSteps,
		Compression:   t.Compression,
		Model:         scenario.ModelSpec{Arch: t.Arch, Hidden: t.Hidden},
		Data: scenario.DataSpec{
			Samples: t.Samples, Classes: t.Classes, C: t.C, H: t.H, W: t.W,
			Valid: t.Samples / 5, Noise: 0.35, Seed: t.DataSeed,
		},
		Bandwidth: scenario.BandwidthSpec{Kind: "uniform", Lo: 1, Hi: 5},
		Partition: part,
	}
	if algo == "saps" {
		s.Gossip = &scenario.GossipSpec{BThres: g.BThres, TThres: g.TThres}
	}
	return s
}

// Recipe is the converted spec's recipe for the given trainer count.
func (t TaskSpec) Recipe(trainers int) algos.Recipe {
	return t.Spec(trainers, GossipConfig{}).Recipe()
}

// BuildModel builds the converted spec's model.
func (t TaskSpec) BuildModel() (*nn.Model, error) {
	return t.Spec(1, GossipConfig{}).NewModel()
}

// BuildShards is the converted spec's data for n trainers: the shards and the
// held-out set.
func (t TaskSpec) BuildShards(n int) ([]*dataset.Dataset, *dataset.Dataset) {
	return t.Spec(n, GossipConfig{}).Dataset()
}

// Control-plane messages (coordinator ↔ worker).
type (
	// Hello is the worker's registration: where peers can reach it.
	Hello struct {
		ListenAddr string
	}
	// Welcome assigns the worker its rank and delivers the run's scenario
	// spec, as its canonical bytes, and the peer address book.
	Welcome struct {
		Rank  int
		N     int
		Spec  []byte
		Addrs []string
	}
	// RoundMsg is Algorithm 1 line 6: the control message for one round.
	// Peer is this worker's pairwise partner (-1: none; meaningful only
	// for the pairwise pattern); Active, when non-nil, is the round's
	// participation set over all node ranks (hub algorithms' chosen
	// fraction, or the fault schedule's survivors). Attempt numbers the
	// round's execution attempts: it starts at 0 and increments each time
	// the coordinator aborts and re-plans the round after losing a worker.
	// Addrs, when non-nil, is a fresh peer address book (rebroadcast after
	// a rejoin changed a worker's listener).
	RoundMsg struct {
		Round   int
		Seed    uint64
		Peer    int
		Active  []bool
		Attempt int
		Addrs   []string
	}
	// RoundEnd is the worker's end-of-round notification: the measured
	// outcome of its engine round. Flows carries the exact wire bytes the
	// worker's codec produced per peer, which is what the coordinator's
	// ledger charges. Workers excluded by Active stay silent instead.
	RoundEnd struct {
		Rank       int
		Round      int
		Attempt    int
		Loss       float64
		Trained    bool
		PayloadLen int
		Flows      []engine.Flow
	}
	// RoundFailed is a worker's report that its round attempt died on a
	// send to a peer (the peer's process is gone): the coordinator marks the
	// peer dead, aborts the round on every survivor, and re-plans it.
	RoundFailed struct {
		Rank   int
		Round  int
		Peer   int // the peer that could not be reached, -1 if unknown
		Reason string
	}
	// Abort tells every surviving worker to discard the named round's
	// attempt: stop waiting for its frames, roll back to the round-boundary
	// snapshot, and acknowledge. A re-planned RoundMsg (Attempt+1)
	// follows.
	Abort struct {
		Round int
	}
	// AbortAck confirms a worker has rolled back to the round boundary.
	AbortAck struct {
		Rank  int
		Round int
	}
	// CrashMsg is the coordinator's fault-injection kill: the scenario's
	// fault schedule says this worker crashes at this round boundary. The
	// worker commits the boundary's state and tears down exactly as a
	// killed process would; WorkerClient.Run returns ErrCrashed.
	CrashMsg struct {
		Round int
	}
	// Rejoin is a restarted worker's registration: instead of Hello it
	// announces the rank it held and the round its snapshot resumes from
	// (which must equal the round the coordinator saw it die at).
	Rejoin struct {
		Rank       int
		NextRound  int
		ListenAddr string
	}
	// RejoinAck re-admits a rejoining worker: the coordinator's current
	// round, the node count, and the fresh peer address book.
	RejoinAck struct {
		Round int
		N     int
		Addrs []string
	}
	// RejoinNack rejects a rejoin attempt with an actionable reason (wrong
	// rank, stale snapshot, rank still alive).
	RejoinNack struct {
		Reason string
	}
	// CollectRequest asks a worker for its full model (Algorithm 1 line 8).
	CollectRequest struct{}
	// FinalModel is the collected model payload: the flat parameters as raw
	// words (tensor.AppendWords), moved as one section.
	FinalModel struct {
		Params []byte
	}
	// Done terminates the worker.
	Done struct{}
)

// PeerPayload is a data-plane frame as the inbox holds it: the encoded wire
// words one worker sent another for the given round, or a measurement probe
// or its echo. Seq numbers the frames of one directed pair within a round
// attempt (hub pull/push, collective phases). A pair's connection is
// long-lived and delivers its frames in order, but a redial opens another,
// whose reader can overtake the old one's; so the receiver claims frames by
// Seq, not by arrival. Attempt distinguishes a re-planned round's frames
// from a stale aborted attempt's.
// A frame with a zero-length body is a legitimate empty payload (its Vals are
// nil): the frame itself is the deposit.
type PeerPayload struct {
	Round   int
	From    int
	Seq     int
	Attempt int
	Vals    []float64
}

// A control message travels as one frame of kind engine.FrameControl. The
// header's seq names the message type and its from, round and attempt are
// zero; the body is the message's fields in declaration order, laid out by
// the type's fields method (below), which is its encoder and its decoder:
//
//   - an int, a uint64 or a float64 is one little-endian word (a float's
//     IEEE-754 bits, so a NaN loss arrives as sent); a bool is one byte, 0 or 1;
//   - a []byte or a string is a section, a run of bytes behind its 8-byte
//     length; a slice of anything else is a section of its entries in order.
//
// An empty section decodes as nil, so Active == nil still means everyone and
// Addrs == nil no new address book. Fields that can be −1 (RoundMsg.Peer,
// RoundFailed.Peer) are body words, never the header's unsigned fields. A
// decoder takes exactly what the encoder writes — any other byte is an error,
// never a panic — so a message it accepts re-encodes to the bytes it came in.

// controlType is a control frame's message type, carried in the header's seq.
type controlType uint32

const (
	typeHello controlType = 1 + iota
	typeWelcome
	typeRoundMsg
	typeRoundEnd
	typeRoundFailed
	typeAbort
	typeAbortAck
	typeCrash
	typeRejoin
	typeRejoinAck
	typeRejoinNack
	typeCollect
	typeFinalModel
	typeDone
	typeMeasureRequest
	typeMeasureReport
	controlTypes
)

// message is a control message's field layout.
type message interface{ fields(*layout) }

// controlOf names m's type and hands out a copy of it to encode.
func controlOf(m any) (controlType, message) {
	switch m := m.(type) {
	case Hello:
		return typeHello, &m
	case Welcome:
		return typeWelcome, &m
	case RoundMsg:
		return typeRoundMsg, &m
	case RoundEnd:
		return typeRoundEnd, &m
	case RoundFailed:
		return typeRoundFailed, &m
	case Abort:
		return typeAbort, &m
	case AbortAck:
		return typeAbortAck, &m
	case CrashMsg:
		return typeCrash, &m
	case Rejoin:
		return typeRejoin, &m
	case RejoinAck:
		return typeRejoinAck, &m
	case RejoinNack:
		return typeRejoinNack, &m
	case CollectRequest:
		return typeCollect, &m
	case FinalModel:
		return typeFinalModel, &m
	case Done:
		return typeDone, &m
	case MeasureRequest:
		return typeMeasureRequest, &m
	case MeasureReport:
		return typeMeasureReport, &m
	}
	return 0, nil
}

// controlDecoders decodes a body of each type into a message value.
var controlDecoders = [controlTypes]func(*layout) any{
	typeHello:          decodeAs[Hello],
	typeWelcome:        decodeAs[Welcome],
	typeRoundMsg:       decodeAs[RoundMsg],
	typeRoundEnd:       decodeAs[RoundEnd],
	typeRoundFailed:    decodeAs[RoundFailed],
	typeAbort:          decodeAs[Abort],
	typeAbortAck:       decodeAs[AbortAck],
	typeCrash:          decodeAs[CrashMsg],
	typeRejoin:         decodeAs[Rejoin],
	typeRejoinAck:      decodeAs[RejoinAck],
	typeRejoinNack:     decodeAs[RejoinNack],
	typeCollect:        decodeAs[CollectRequest],
	typeFinalModel:     decodeAs[FinalModel],
	typeDone:           decodeAs[Done],
	typeMeasureRequest: decodeAs[MeasureRequest],
	typeMeasureReport:  decodeAs[MeasureReport],
}

func decodeAs[T any, P interface {
	*T
	message
}](l *layout) any {
	var m T
	P(&m).fields(l)
	return m
}

func (m *Hello) fields(l *layout) { l.text(&m.ListenAddr) }
func (m *Welcome) fields(l *layout) {
	word(l, &m.Rank)
	word(l, &m.N)
	l.bytes(&m.Spec)
	list(l, &m.Addrs, (*layout).text)
}
func (m *RoundMsg) fields(l *layout) {
	word(l, &m.Round)
	word(l, &m.Seed)
	word(l, &m.Peer)
	list(l, &m.Active, (*layout).flag)
	word(l, &m.Attempt)
	list(l, &m.Addrs, (*layout).text)
}
func (m *RoundEnd) fields(l *layout) {
	word(l, &m.Rank)
	word(l, &m.Round)
	word(l, &m.Attempt)
	l.float(&m.Loss)
	l.flag(&m.Trained)
	word(l, &m.PayloadLen)
	list(l, &m.Flows, func(l *layout, f *engine.Flow) { word(l, &f.Peer); word(l, &f.Sent); word(l, &f.Recv) })
}
func (m *RoundFailed) fields(l *layout) {
	word(l, &m.Rank)
	word(l, &m.Round)
	word(l, &m.Peer)
	l.text(&m.Reason)
}
func (m *Abort) fields(l *layout)    { word(l, &m.Round) }
func (m *AbortAck) fields(l *layout) { word(l, &m.Rank); word(l, &m.Round) }
func (m *CrashMsg) fields(l *layout) { word(l, &m.Round) }
func (m *Rejoin) fields(l *layout) {
	word(l, &m.Rank)
	word(l, &m.NextRound)
	l.text(&m.ListenAddr)
}
func (m *RejoinAck) fields(l *layout) {
	word(l, &m.Round)
	word(l, &m.N)
	list(l, &m.Addrs, (*layout).text)
}
func (m *RejoinNack) fields(l *layout)     { l.text(&m.Reason) }
func (*CollectRequest) fields(*layout)     {}
func (m *FinalModel) fields(l *layout)     { l.bytes(&m.Params) }
func (*Done) fields(*layout)               {}
func (m *MeasureRequest) fields(l *layout) { word(l, &m.ProbeBytes) }
func (m *MeasureReport) fields(l *layout) {
	word(l, &m.Rank)
	list(l, &m.MBps, (*layout).float)
}

// layout walks a message's fields in order: encoding, it appends each to
// buf; decoding, it takes each off the front of buf, and the first field
// that does not fit stops the walk with err.
type layout struct {
	decoding bool
	buf      []byte
	err      error
}

// take cuts the next n bytes off a decoding layout, nil once it has failed.
func (l *layout) take(n int, what string) []byte {
	if l.err != nil {
		return nil
	}
	if len(l.buf) < n {
		l.err = fmt.Errorf("the body ends inside a %s (%d of %d bytes left)", what, len(l.buf), n)
		return nil
	}
	b := l.buf[:n]
	l.buf = l.buf[n:]
	return b
}

// word lays out an integer as one little-endian word.
func word[T ~int | ~int64 | ~uint64](l *layout, x *T) {
	if !l.decoding {
		l.buf = binary.LittleEndian.AppendUint64(l.buf, uint64(*x))
	} else if b := l.take(8, "word"); b != nil {
		*x = T(binary.LittleEndian.Uint64(b))
	}
}

func (l *layout) float(x *float64) {
	bits := math.Float64bits(*x)
	word(l, &bits)
	*x = math.Float64frombits(bits)
}

func (l *layout) flag(x *bool) {
	if !l.decoding {
		var b byte
		if *x {
			b = 1
		}
		l.buf = append(l.buf, b)
	} else if b := l.take(1, "bool"); b != nil {
		if b[0] > 1 {
			l.err = fmt.Errorf("bool byte %d, want 0 or 1", b[0])
			return
		}
		*x = b[0] == 1
	}
}

// bytes lays out a section; an empty one decodes as nil, aliasing nothing.
func (l *layout) bytes(x *[]byte) {
	if !l.decoding {
		l.buf = tensor.AppendSection(l.buf, *x)
		return
	}
	if l.err != nil {
		return
	}
	sec, rest, err := tensor.CutSection(l.buf)
	if err != nil {
		l.err = err
		return
	}
	l.buf, *x = rest, nil
	if len(sec) > 0 {
		*x = sec
	}
}

func (l *layout) text(x *string) {
	if !l.decoding {
		l.buf = append(tensor.BeginSection(l.buf, len(*x)), *x...)
		return
	}
	var b []byte
	l.bytes(&b)
	*x = string(b)
}

// list lays out a slice as one section of its entries, each by entry.
func list[T any](l *layout, x *[]T, entry func(*layout, *T)) {
	inner := layout{decoding: l.decoding}
	if !l.decoding {
		for i := range *x {
			entry(&inner, &(*x)[i])
		}
		l.buf = tensor.AppendSection(l.buf, inner.buf)
		return
	}
	l.bytes(&inner.buf)
	var out []T
	for len(inner.buf) > 0 && inner.err == nil {
		var v T
		entry(&inner, &v)
		out = append(out, v)
	}
	if l.err == nil {
		l.err, *x = inner.err, out
	}
}

// Each control type has a body cap. Before the handshake — Welcome, or a
// rejoiner's RejoinAck — a connection knows neither the fleet nor the model,
// so what can be sized by them is capped by constants; after it, by the
// process count n and the model's parameter count.
const (
	// handshakeCap bounds a Welcome or RejoinAck (the spec's bytes and an
	// address book), and before the handshake every message sized by the
	// fleet.
	handshakeCap = 1 << 20
	// maxText bounds one string: an address or a failure reason.
	maxText = 4 << 10
)

// controlLimits are what a connection's caps are computed from; zero until
// the handshake is done.
type controlLimits struct{ n, params int }

// bodyCap is the largest body a message of type t may have.
func (c controlLimits) bodyCap(t controlType) int {
	const w = 8
	text := tensor.SectionSize(maxText)
	switch t {
	case typeCollect, typeDone:
		return 0
	case typeAbort, typeCrash, typeMeasureRequest:
		return w
	case typeAbortAck:
		return 2 * w
	case typeHello, typeRejoinNack:
		return text
	case typeRejoin:
		return 2*w + text
	case typeRoundFailed:
		return 3*w + text
	case typeWelcome, typeRejoinAck:
		return handshakeCap
	}
	if c.n == 0 {
		return handshakeCap
	}
	switch t {
	case typeRoundMsg:
		return 4*w + tensor.SectionSize(c.n) + tensor.SectionSize(c.n*text)
	case typeRoundEnd:
		return 5*w + 1 + tensor.SectionSize(3*w*c.n)
	case typeFinalModel:
		return tensor.SectionSize(w * c.params)
	case typeMeasureReport:
		return w + tensor.SectionSize(w*c.n)
	}
	return 0
}

// Conn is one end of a coordinator–worker connection: control messages in
// and out as frames, read through one buffered reader. Send and Recv may run
// concurrently with each other, but not with themselves.
type Conn struct {
	rwc    io.ReadWriteCloser
	r      *bufio.Reader
	out    []byte // Send's frame, reused
	limits controlLimits
}

// NewConn wraps rwc. Both sides must wrap their end.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	return &Conn{rwc: rwc, r: bufio.NewReader(rwc)}
}

// dialConn connects to the coordinator listening at addr.
func dialConn(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// setLimits sizes the caps of every later message by the fleet's n processes
// and the model's params parameters. It must be called before Send or Recv
// run concurrently.
func (c *Conn) setLimits(n, params int) { c.limits = controlLimits{n: n, params: params} }

// Send encodes one message as one frame and writes it. A message over its
// type's cap is refused here, as the receiver would refuse it.
func (c *Conn) Send(m any) error {
	t, msg := controlOf(m)
	if msg == nil {
		return fmt.Errorf("transport: send %T: not a control message", m)
	}
	l := layout{buf: engine.BeginFrame(c.out)}
	msg.fields(&l)
	c.out = l.buf
	if body, limit := len(c.out)-engine.FrameHeaderLen, c.limits.bodyCap(t); body > limit {
		return fmt.Errorf("transport: send %T: a %d-byte body is over its %d-byte cap", m, body, limit)
	}
	engine.SealFrame(c.out, engine.FrameHeader{Kind: engine.FrameControl, Seq: int(t)})
	if _, err := c.rwc.Write(c.out); err != nil {
		return fmt.Errorf("transport: send %T: %w", m, err)
	}
	return nil
}

// Recv reads and decodes one message. The frame's header is judged before
// any room is made for its body: its kind, its zero routing fields, its type,
// and the declared length against the type's cap.
func (c *Conn) Recv() (any, error) {
	h, body, err := engine.ReadFrame(c.r, nil, c.judge)
	if err != nil {
		return nil, fmt.Errorf("transport: recv: %w", err)
	}
	return decodeControl(controlType(h.Seq), body)
}

func (c *Conn) judge(h engine.FrameHeader) (int, error) {
	t := controlType(h.Seq)
	switch {
	case h.Kind != engine.FrameControl:
		return 0, fmt.Errorf("transport: frame of kind %d on a control connection", h.Kind)
	case h.From != 0 || h.Round != 0 || h.Attempt != 0:
		return 0, fmt.Errorf("transport: control frame routed from %d, round %d, attempt %d; want zeros", h.From, h.Round, h.Attempt)
	case t < typeHello || t >= controlTypes:
		return 0, fmt.Errorf("transport: unknown control message type %d", h.Seq)
	}
	return c.limits.bodyCap(t), nil
}

// decodeControl decodes the body of a control frame of type t, which must be
// all of body.
func decodeControl(t controlType, body []byte) (any, error) {
	l := layout{decoding: true, buf: body}
	m := controlDecoders[t](&l)
	if l.err == nil && len(l.buf) != 0 {
		l.err = fmt.Errorf("%d bytes after the last field", len(l.buf))
	}
	if l.err != nil {
		return nil, fmt.Errorf("transport: recv %T: %w", m, l.err)
	}
	return m, nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rwc.Close() }
