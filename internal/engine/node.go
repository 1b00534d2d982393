package engine

import (
	"fmt"

	"sapspsgd/internal/core"
)

// RoundContext is the per-round, per-node view of the coordinator's control
// message: everything a Node or Codec may condition on.
type RoundContext struct {
	// Round is t, the round index.
	Round int
	// Seed is the coordinator's broadcast mask seed s.
	Seed uint64
	// Self is this node's rank.
	Self int
	// N is the total node count (trainers plus, for hub patterns, the
	// server rank).
	N int
	// Plan is the full control message (peer table, active set).
	Plan core.RoundPlan
}

// PeerMsg is one decoded inbound message delivered to Node.Merge.
type PeerMsg struct {
	// From is the sender's rank, or -1 for a collective reduction result
	// (the element-wise sum over all participants).
	From int
	// Vals is the sender's payload decoded with the sender's codec; its
	// exact semantics are codec-specific (see Codec.Decode). Merge may
	// mutate a per-sender Vals. A collective result (From -1) is one
	// aggregate every rank of an in-process engine merges: it is read-only
	// to Merge. Nil when the pattern delivers sparse wire words undecoded
	// (Neighborhood.Sparse, Hub.Sparse): Merge reads Words.
	Vals []float64
	// Words is the raw wire payload, for nodes that need the explicit
	// support of a sparse encoding (parse with SparseWords, or add with
	// AddSparse, which check it). Nil for collective results.
	Words []float64
	// Bytes is the payload's exact wire size.
	Bytes int64
}

// Node is one participant's algorithm-specific state machine, driven by a
// Pattern each round. The call order is pattern-defined: most patterns run
// Compute then Merge; the hub pattern delivers the server's downlink to a
// worker's Merge *before* its Compute (pull → train → push).
type Node interface {
	// Compute runs the node's local work for the round and returns the
	// training loss (math.NaN() for nodes that do not train, e.g. a
	// parameter server) and the dense vector to share this round. The
	// returned slice may be node-owned scratch; it must stay valid until
	// the round completes.
	Compute(ctx RoundContext) (loss float64, out []float64, err error)
	// Merge folds the round's inbound messages into local state.
	Merge(ctx RoundContext, msgs []PeerMsg) error
}

// Flow is one node's measured traffic with one peer within a round,
// sender-attributed: Sent is what this node's codec actually encoded and
// shipped, Recv what it measured arriving.
type Flow struct {
	Peer int
	Sent int64
	Recv int64
}

// NodeReport is the outcome of one node's round.
type NodeReport struct {
	// Loss is the local training loss (NaN when the node does not train).
	Loss float64
	// Trained reports whether Loss participates in the round mean. The
	// pattern sets it by role — true for every trainer, whatever its loss,
	// and false for the hub's server.
	Trained bool
	// PayloadLen is the number of wire words in this node's outbound
	// payload (the shared-mask population count for the masked codec).
	PayloadLen int
	// Flows lists the node's measured exchanges.
	Flows []Flow
}

// MaskedGossipNode is the SAPS-PSGD worker as an engine Node: local SGD,
// then (when matched by the pairwise pattern) shared-seed masked gossip
// averaging with the single assigned peer. It pairs with the Masked codec —
// the codec extracts the masked payload from the dense parameter vector this
// node shares, and Merge regenerates the identical mask from the broadcast
// seed to interpret the peer's packed values.
type MaskedGossipNode struct {
	W *core.Worker
}

// NewMaskedGossipNode wraps a core worker.
func NewMaskedGossipNode(w *core.Worker) *MaskedGossipNode { return &MaskedGossipNode{W: w} }

// ShareMasks points every masked-gossip node at the round-mask cache the
// process's masked codecs already share (a table without one — every
// baseline's — is left alone), so the ranks a process hosts, and each rank's
// node and codec, regenerate one mask per round between them. The mask is a
// pure function of (seed, round, n, c), so sharing is bit-invisible.
func ShareMasks(nodes []Node, codecs []Codec) {
	for _, c := range codecs {
		m, ok := c.(*Masked)
		if !ok || m.cache == nil {
			continue
		}
		for _, n := range nodes {
			if g, ok := n.(*MaskedGossipNode); ok {
				g.W.ShareMasks(m.cache)
			}
		}
		return
	}
}

// Compute implements Node: Algorithm 2 line 5 (local SGD) and the dense
// parameter snapshot the masked codec sparsifies.
func (n *MaskedGossipNode) Compute(ctx RoundContext) (float64, []float64, error) {
	loss := n.W.LocalSGD()
	// The live parameters ship: the masked codec copies its values out
	// before any Merge writes the model (DESIGN §2 "Sender aliasing").
	x, _ := n.W.Model.Flat()
	return loss, x, nil
}

// Merge implements Node: Algorithm 2 lines 6–10 — regenerate the shared
// round mask and average the masked coordinates with the peer's values.
func (n *MaskedGossipNode) Merge(ctx RoundContext, msgs []PeerMsg) error {
	for _, m := range msgs {
		if m.From < 0 {
			return fmt.Errorf("engine: masked gossip node received collective message")
		}
		n.W.RoundMask(ctx.Seed, ctx.Round)
		if err := n.W.MergePeer(m.Vals); err != nil {
			return fmt.Errorf("engine: round %d, peer %d: %w", ctx.Round, m.From, err)
		}
	}
	return nil
}

// AppendState implements Stateful: the worker's trainer state (model
// checkpoint, loader cursor) — the mask handle is regenerated from the
// broadcast seed and carries nothing across a boundary.
func (n *MaskedGossipNode) AppendState(dst []byte) ([]byte, error) { return n.W.AppendState(dst) }

// RestoreState implements Stateful.
func (n *MaskedGossipNode) RestoreState(data []byte) error { return n.W.RestoreState(data) }
