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
// Control-plane messages (coordinator ↔ worker) are small and typed and
// travel gob-encoded over one long-lived Conn per worker. The data plane
// (worker ↔ worker) speaks engine frames only: a fixed checksummed header and
// the codec's wire words as raw little-endian float64s — for SAPS the packed
// masked values, whose indices travel as a 64-bit seed inside the control
// message, reproducing the paper's wire economics. Worker snapshot files are
// frames too (snapshot.go).
package transport

import (
	"encoding/gob"
	"fmt"
	"io"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/scenario"
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
	// worker flushes its committed snapshot and tears down exactly as a
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
	// words (tensor.AppendWords), which gob moves as one byte string.
	FinalModel struct {
		Params []byte
	}
	// Done terminates the worker.
	Done struct{}
)

// PeerPayload is a data-plane frame as the inbox holds it: the encoded wire
// words one worker sent another for the given round — one frame per
// connection, nothing sent back. Seq numbers the frames of one directed pair
// within a round attempt (hub pull/push, collective phases) — each frame
// travels on its own connection, so two consecutive frames can be accepted
// out of order, and the receiver claims them by Seq, not by arrival. Attempt
// distinguishes a re-planned round's frames from a stale aborted attempt's.
// A frame with a zero-length body is a legitimate empty payload (its Vals are
// nil): the frame itself is the deposit.
type PeerPayload struct {
	Round   int
	From    int
	Seq     int
	Attempt int
	Vals    []float64
}

// wire is the gob envelope: encoding an interface value requires concrete
// type registration, done once for the process.
type wire struct {
	M any
}

func init() {
	gob.Register(Hello{})
	gob.Register(Welcome{})
	gob.Register(RoundMsg{})
	gob.Register(RoundEnd{})
	gob.Register(RoundFailed{})
	gob.Register(Abort{})
	gob.Register(AbortAck{})
	gob.Register(CrashMsg{})
	gob.Register(Rejoin{})
	gob.Register(RejoinAck{})
	gob.Register(RejoinNack{})
	gob.Register(CollectRequest{})
	gob.Register(FinalModel{})
	gob.Register(Done{})
	gob.Register(MeasureRequest{})
	gob.Register(MeasureReport{})
}

// Conn wraps a stream with gob encode/decode of wire envelopes.
type Conn struct {
	enc *gob.Encoder
	dec *gob.Decoder
	c   io.Closer
}

// NewConn wraps rwc. Both sides must wrap their end.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	return &Conn{enc: gob.NewEncoder(rwc), dec: gob.NewDecoder(rwc), c: rwc}
}

// Send encodes one message.
func (c *Conn) Send(m any) error {
	if err := c.enc.Encode(wire{M: m}); err != nil {
		return fmt.Errorf("transport: send %T: %w", m, err)
	}
	return nil
}

// Recv decodes one message.
func (c *Conn) Recv() (any, error) {
	var w wire
	if err := c.dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("transport: recv: %w", err)
	}
	return w.M, nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.c.Close() }
