package algos

import (
	"fmt"
	"math"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/tensor"
)

// This file holds the engine.Node implementations behind the seven baseline
// algorithms. Each node owns exactly one rank's local state (its
// core.Trainer — model, optimizer, loader — and scratch), so the same types
// serve the in-process fleet simulations and the one-node-per-process TCP
// deployment. A training node embeds its trainer, which makes it
// engine.Stateful as it stands; state.go holds the nodes that capture more.

// ---------------------------------------------------------------------------
// Gradient-averaging nodes (PSGD, TopK-PSGD, QSGD-PSGD)

// gradAvgNode is synchronous data-parallel SGD: each round it shares its
// minibatch gradient and applies the fleet-wide average. Composed with the
// Collective pattern + dense codec it is PSGD (exact all-reduce); with the
// AllGather pattern + a lossy codec it is the compressed all-gather family
// (TopK-PSGD, QSGD-PSGD), where the merged sum is the sum of *decoded*
// gradients, the node's own included.
type gradAvgNode struct {
	*core.Trainer
	lr float64
	n  int // trainer count the sum is averaged over
}

// Compute implements engine.Node.
func (g *gradAvgNode) Compute(engine.RoundContext) (float64, []float64, error) {
	loss := g.GradStep()
	// The live gradients ship: the next step writes them after the round
	// ends (DESIGN §2 "Sender aliasing").
	_, grads := g.Model.Flat()
	return loss, grads, nil
}

// Merge implements engine.Node: apply −lr · (Σ g_j)/n.
func (g *gradAvgNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	if len(msgs) != 1 || msgs[0].From != -1 {
		return fmt.Errorf("algos: gradient-average node expects one collective sum, got %d messages", len(msgs))
	}
	g.Model.AddFlatToParams(-g.lr/float64(g.n), msgs[0].Vals)
	return nil
}

// ---------------------------------------------------------------------------
// Neighborhood mixing node (D-PSGD and its topology variants)

// neighborMixNode is D-PSGD (Lian et al.): each round it shares its dense
// model with its static neighbors and applies
// x ← Σ_j W_ij x_j − lr·∇F(x), with W rows given per node. Composed with
// the Neighborhood pattern + dense codec.
type neighborMixNode struct {
	*core.Trainer
	lr     float64
	row    mixRow // W row, self weight included
	params []float64
	// weights is Merge's scratch: the row weight of each message.
	weights []float64
}

// Compute implements engine.Node.
func (d *neighborMixNode) Compute(engine.RoundContext) (float64, []float64, error) {
	loss := d.GradStep()
	// A copy ships: Merge rewrites the model while the neighbours still read
	// this payload (DESIGN §2 "Sender aliasing").
	d.params = d.Model.FlatParams(d.params)
	return loss, d.params, nil
}

// Merge implements engine.Node: the mix is written straight into the model,
// once every sender is known to be a neighbour. It runs a block of
// coordinates at a time, and in each block the same operations in the same
// order as a pass per term: x = wₛ·p, then x += wₘ·mₘ for each message in
// delivery order, then x += −lr·g.
func (d *neighborMixNode) Merge(ctx engine.RoundContext, msgs []engine.PeerMsg) error {
	x, grads := d.Model.Flat()
	if len(d.params) != len(x) {
		return fmt.Errorf("algos: D-PSGD node %d merges %d own values, model has %d", ctx.Self, len(d.params), len(x))
	}
	d.weights = d.weights[:0]
	for _, m := range msgs {
		e := d.row.find(m.From)
		if e == nil {
			return fmt.Errorf("algos: D-PSGD node %d received model from non-neighbor %d", ctx.Self, m.From)
		}
		if len(m.Vals) != len(x) {
			return fmt.Errorf("algos: D-PSGD node %d received %d values from %d, model has %d", ctx.Self, len(m.Vals), m.From, len(x))
		}
		d.weights = append(d.weights, e.w)
	}
	wSelf := d.row.find(ctx.Self).w
	for lo := 0; lo < len(x); lo += mixBlock {
		hi := min(lo+mixBlock, len(x))
		xs := x[lo:hi]
		for j, v := range d.params[lo:hi] {
			xs[j] = wSelf * v
		}
		for k, m := range msgs {
			tensor.Axpy(d.weights[k], m.Vals[lo:hi], xs)
		}
		tensor.Axpy(-d.lr, grads[lo:hi], xs)
	}
	return nil
}

// mixBlock is how many coordinates the mixes (neighborMixNode.Merge,
// dcdNode.Compute) finish at a time: a block of every operand stays in
// cache across the mixing row, so each vector streams through once.
const mixBlock = 256

// ---------------------------------------------------------------------------
// Difference-compressed node (DCD-PSGD)

// dcdNode is difference-compressed decentralized SGD (Tang et al.): it keeps
// public replicas x̂ of itself and its neighbors, gossips over the replicas,
// and shares only a top-k compressed difference between its new model and
// its own replica. Composed with the Neighborhood pattern (IncludeSelf: the
// node must apply its own *lossy* delta to its own replica, exactly as its
// neighbors do) + a top-k codec without error feedback.
type dcdNode struct {
	*core.Trainer
	lr float64
	// row holds the node itself and its neighbours, each with the public
	// replica kept of it; the gossip sums over the neighbours' entries.
	row  mixRow
	diff []float64
}

// newDCDNode initializes the replicas at the shared initial model, so they
// are exact at round 0.
func newDCDNode(t *core.Trainer, lr float64, row mixRow) *dcdNode {
	for k := range row {
		row[k].replica = t.Model.FlatParams(nil)
	}
	return &dcdNode{Trainer: t, lr: lr, row: row}
}

// Compute implements engine.Node: replica-based gossip + gradient step on
// the model in place, then publish the compressed model/replica difference.
func (n *dcdNode) Compute(ctx engine.RoundContext) (float64, []float64, error) {
	loss := n.GradStep()
	x, grads := n.Model.Flat()
	return loss, n.mix(ctx.Self, x, grads), nil
}

// mix is Compute after the gradient: for each coordinate, in blocks of
// mixBlock, the gossip Σₖ wₖ·(rₖ − self) over the neighbours in row order
// from +0, then x += gossip − lr·g, and the published difference x − self.
func (n *dcdNode) mix(rank int, x, grads []float64) []float64 {
	self := n.row.find(rank).replica
	if cap(n.diff) < len(x) {
		n.diff = make([]float64, len(x))
	}
	n.diff = n.diff[:len(x)]
	var gossip [mixBlock]float64
	for lo := 0; lo < len(x); lo += mixBlock {
		hi := min(lo+mixBlock, len(x))
		g := gossip[:hi-lo]
		clear(g)
		for k := range n.row {
			if e := &n.row[k]; e.rank != rank {
				gossipBlock(g, e.w, e.replica[lo:hi], self[lo:hi])
			}
		}
		dcdStep(x[lo:hi], n.diff[lo:hi], g, grads[lo:hi], self[lo:hi], n.lr)
	}
	return n.diff
}

// gossipBlock adds one neighbour's term of the replica gossip to a block of
// sums: g[j] += w·(r[j] − self[j]), the product rounded before the add.
func gossipBlock(g []float64, w float64, r, self []float64) {
	r, self = r[:len(g)], self[:len(g)]
	for j := range g {
		g[j] += float64(w * (r[j] - self[j]))
	}
}

// dcdStep finishes a block: the model takes its gossip sum and gradient
// step, x[j] += g[j] − lr·grads[j] with the product rounded before the
// subtraction, and the published difference is diff[j] = x[j] − self[j].
func dcdStep(x, diff, g, grads, self []float64, lr float64) {
	diff, g, grads, self = diff[:len(x)], g[:len(x)], grads[:len(x)], self[:len(x)]
	for j := range x {
		x[j] += g[j] - float64(lr*grads[j])
		diff[j] = x[j] - self[j]
	}
}

// Merge implements engine.Node: every published delta (the node's own
// included) advances the corresponding public replica. The deltas arrive as
// sparse wire words and are added on their support only — the expanded add
// of the zeros off it would change nothing, as no replica holds −0.
func (n *dcdNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		e := n.row.find(m.From)
		if e == nil {
			return fmt.Errorf("algos: DCD node received delta from non-neighbor %d", m.From)
		}
		if err := engine.AddSparse(e.replica, m.Words); err != nil {
			return fmt.Errorf("algos: DCD node: delta from %d: %w", m.From, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Parameter-server nodes (PS-PSGD)

// psWorkerNode pulls the fresh dense model (hub downlink, merged before
// Compute), computes one minibatch gradient on it, and pushes the dense
// gradient up.
type psWorkerNode struct {
	*core.Trainer
}

// Compute implements engine.Node.
func (p *psWorkerNode) Compute(engine.RoundContext) (float64, []float64, error) {
	loss := p.GradStep()
	// The live gradients ship: the next step writes them after the round
	// ends (DESIGN §2 "Sender aliasing").
	_, grads := p.Model.Flat()
	return loss, grads, nil
}

// Merge implements engine.Node (hub downlink: adopt the server model).
func (p *psWorkerNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		p.Model.SetFlatParams(m.Vals)
	}
	return nil
}

// psServerNode owns the global model: it broadcasts it down and applies the
// average of the uploaded gradients. mirror, when set, receives the updated
// parameters too — the in-process harness evaluates on worker 0's model
// because the server model never forward-passes and therefore has no trained
// normalization statistics.
type psServerNode struct {
	serverModel
	mirror *nn.Model
	lr     float64
	params []float64
	acc    []float64
}

// Compute implements engine.Node.
func (s *psServerNode) Compute(engine.RoundContext) (float64, []float64, error) {
	s.params = s.model.FlatParams(s.params)
	return math.NaN(), s.params, nil
}

// Merge implements engine.Node: x ← x − lr · mean(uploaded gradients).
func (s *psServerNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	if len(msgs) == 0 {
		return nil
	}
	if cap(s.acc) < len(s.params) {
		s.acc = make([]float64, len(s.params))
	}
	s.acc = s.acc[:len(s.params)]
	tensor.Fill(s.acc, 0)
	for _, m := range msgs {
		tensor.Axpy(1/float64(len(msgs)), m.Vals, s.acc)
	}
	tensor.Axpy(-s.lr, s.acc, s.params)
	s.model.SetFlatParams(s.params)
	if s.mirror != nil {
		s.mirror.SetFlatParams(s.params)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Federated-averaging nodes (FedAvg, S-FedAvg)

// fedWorkerNode pulls the dense model, runs localSteps minibatch SGD steps,
// and pushes either its full model (FedAvg, dense codec) or its model delta
// (S-FedAvg, random-k codec).
type fedWorkerNode struct {
	*core.Trainer
	localSteps int
	delta      bool
	pulled     []float64 // server params at this round's pull
	out        []float64
}

// Merge implements engine.Node (hub downlink).
func (f *fedWorkerNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	for _, m := range msgs {
		f.pulled = append(f.pulled[:0], m.Vals...)
		f.Model.SetFlatParams(f.pulled)
	}
	return nil
}

// Compute implements engine.Node.
func (f *fedWorkerNode) Compute(engine.RoundContext) (float64, []float64, error) {
	loss := f.LocalSGD(f.localSteps)
	f.out = f.Model.FlatParams(f.out)
	if f.delta {
		tensor.Sub(f.out, f.out, f.pulled)
	}
	return loss, f.out, nil
}

// fedServerNode aggregates uploads into the global model. With counted unset
// it averages full uploaded models (FedAvg); with counted set it applies
// count-normalized sparse deltas (S-FedAvg), read from the uploads' wire
// words: each received coordinate is averaged over the workers that actually
// reported it, which keeps the update variance bounded at high compression.
type fedServerNode struct {
	serverModel
	mirror  *nn.Model
	counted bool
	params  []float64
	acc     []float64
	counts  []int32
}

// Compute implements engine.Node.
func (s *fedServerNode) Compute(engine.RoundContext) (float64, []float64, error) {
	s.params = s.model.FlatParams(s.params)
	return math.NaN(), s.params, nil
}

// Merge implements engine.Node.
func (s *fedServerNode) Merge(_ engine.RoundContext, msgs []engine.PeerMsg) error {
	if len(msgs) == 0 {
		return nil
	}
	dim := len(s.params)
	if cap(s.acc) < dim {
		s.acc = make([]float64, dim)
	}
	s.acc = s.acc[:dim]
	tensor.Fill(s.acc, 0)
	if !s.counted {
		for _, m := range msgs {
			tensor.Axpy(1/float64(len(msgs)), m.Vals, s.acc)
		}
		copy(s.params, s.acc)
	} else {
		if cap(s.counts) < dim {
			s.counts = make([]int32, dim)
		}
		s.counts = s.counts[:dim]
		for j := range s.counts {
			s.counts[j] = 0
		}
		for _, m := range msgs {
			n, idx, vals, err := engine.SparseWords(m.Words)
			if err != nil {
				return err
			}
			if n != dim {
				return fmt.Errorf("algos: S-FedAvg server: delta of dimension %d from %d, model has %d", n, m.From, dim)
			}
			for i, ix := range idx {
				j := int(ix)
				if j < 0 || j >= dim {
					return fmt.Errorf("algos: S-FedAvg server: index %d out of %d from %d", j, dim, m.From)
				}
				s.acc[j] += vals[i]
				s.counts[j]++
			}
		}
		for j, c := range s.counts {
			if c > 0 {
				s.params[j] += s.acc[j] / float64(c)
			}
		}
	}
	s.model.SetFlatParams(s.params)
	if s.mirror != nil {
		s.mirror.SetFlatParams(s.params)
	}
	return nil
}
