package dataset

import (
	"fmt"
	"math"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// PartitionIID splits d into n shards of (nearly) equal size after a seeded
// shuffle. Shards share the parent's image geometry and class count.
func PartitionIID(d *Dataset, n int, seed uint64) []*Dataset {
	if n < 1 {
		panic(fmt.Sprintf("dataset: PartitionIID with n=%d", n))
	}
	r := rng.New(seed)
	idx := r.Perm(len(d.Samples))
	shards := make([]*Dataset, n)
	for w := 0; w < n; w++ {
		shards[w] = emptyLike(d, fmt.Sprintf("%s/worker%d", d.Name, w))
	}
	for pos, i := range idx {
		w := pos % n
		shards[w].Samples = append(shards[w].Samples, d.Samples[i])
	}
	return shards
}

// PartitionByLabel produces a non-IID partition in the federated-learning
// style: samples are sorted by label into contiguous shards and each worker
// receives shardsPerWorker of them, so most workers see only a few classes.
// This reproduces the data heterogeneity (ζ² > 0 in Assumption 4) under
// which decentralized methods are evaluated.
func PartitionByLabel(d *Dataset, n, shardsPerWorker int, seed uint64) []*Dataset {
	if n < 1 || shardsPerWorker < 1 {
		panic(fmt.Sprintf("dataset: PartitionByLabel n=%d spw=%d", n, shardsPerWorker))
	}
	r := rng.New(seed)
	// Stable ordering by label, randomized within a label.
	byLabel := make([][]int, d.Classes)
	for i, s := range d.Samples {
		byLabel[s.Label] = append(byLabel[s.Label], i)
	}
	var order []int
	for _, idxs := range byLabel {
		r.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		order = append(order, idxs...)
	}
	totalShards := n * shardsPerWorker
	shardSize := len(order) / totalShards
	if shardSize == 0 {
		panic("dataset: too few samples for requested shards")
	}
	shardIDs := r.Perm(totalShards)
	shards := make([]*Dataset, n)
	for w := 0; w < n; w++ {
		shards[w] = emptyLike(d, fmt.Sprintf("%s/worker%d-noniid", d.Name, w))
		for s := 0; s < shardsPerWorker; s++ {
			id := shardIDs[w*shardsPerWorker+s]
			lo := id * shardSize
			hi := lo + shardSize
			if id == totalShards-1 {
				hi = len(order) // last shard absorbs the remainder
			}
			for _, i := range order[lo:hi] {
				shards[w].Samples = append(shards[w].Samples, d.Samples[i])
			}
		}
	}
	return shards
}

// PartitionDirichlet produces the FedAvg-style label-skew partition: for
// each class, the class's samples are split among the n workers in
// proportions drawn from a symmetric Dirichlet(alpha) — small alpha
// concentrates each class on few workers (strong heterogeneity), large
// alpha approaches IID. Counts are rounded by largest remainder so every
// sample lands in exactly one shard, and workers below minPerNode steal
// from the largest shards so no loader ever starves. Shards alias the
// parent's sample storage (headers are copied, pixels are not), exactly
// like PartitionIID. Everything derives from seed.
func PartitionDirichlet(d *Dataset, n int, alpha float64, minPerNode int, seed uint64) []*Dataset {
	if n < 1 || !(alpha > 0) {
		panic(fmt.Sprintf("dataset: PartitionDirichlet n=%d alpha=%v", n, alpha))
	}
	r := rng.New(seed)
	draws := r.Derive(0xd112)
	byLabel := make([][]int, d.Classes)
	for i, s := range d.Samples {
		byLabel[s.Label] = append(byLabel[s.Label], i)
	}
	assign := make([][]int, n)
	weights := make([]float64, n)
	for _, idxs := range byLabel {
		r.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		for w := range weights {
			weights[w] = draws.Gamma(alpha)
		}
		pos := 0
		for w, cnt := range apportion(weights, len(idxs), draws) {
			assign[w] = append(assign[w], idxs[pos:pos+cnt]...)
			pos += cnt
		}
	}
	rebalance(assign, minPerNode, len(d.Samples))
	return shardsFrom(d, assign, "dirichlet")
}

// PartitionQuantitySkew splits d IID in content but unevenly in size: shard
// sizes follow a symmetric Dirichlet(alpha) over the workers (small alpha =
// a few data-rich workers and many data-poor ones), with the same
// largest-remainder rounding, minPerNode floor, and storage aliasing as
// PartitionDirichlet.
func PartitionQuantitySkew(d *Dataset, n int, alpha float64, minPerNode int, seed uint64) []*Dataset {
	if n < 1 || !(alpha > 0) {
		panic(fmt.Sprintf("dataset: PartitionQuantitySkew n=%d alpha=%v", n, alpha))
	}
	r := rng.New(seed)
	draws := r.Derive(0xd112)
	idx := r.Perm(len(d.Samples))
	weights := make([]float64, n)
	for w := range weights {
		weights[w] = draws.Gamma(alpha)
	}
	assign := make([][]int, n)
	pos := 0
	for w, cnt := range apportion(weights, len(idx), draws) {
		assign[w] = append(assign[w], idx[pos:pos+cnt]...)
		pos += cnt
	}
	rebalance(assign, minPerNode, len(d.Samples))
	return shardsFrom(d, assign, "qskew")
}

// apportion rounds total·weights[i]/sum(weights) to integers summing to
// total by largest remainder (ties to the lower index). Two degenerate draws
// take their Dirichlet limit instead of dividing by 0 or +Inf: when every
// weight underflowed to 0 (α → 0) one worker, drawn from r, takes all; when
// a weight or the sum overflowed (α → ∞) the shares are equal.
func apportion(weights []float64, total int, r *rng.Source) []int {
	sum, top := 0.0, 0.0
	for _, w := range weights {
		sum += w
		top = max(top, w)
	}
	counts := make([]int, len(weights))
	if sum == 0 {
		counts[r.Intn(len(counts))] = total
		return counts
	}
	if math.IsInf(sum, 1) || math.IsInf(float64(total)*top, 1) {
		weights, sum = make([]float64, len(weights)), float64(len(weights))
		for i := range weights {
			weights[i] = 1
		}
	}
	fracs := make([]float64, len(weights))
	used := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for used < total {
		best := 0
		for i := 1; i < len(fracs); i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		counts[best]++
		fracs[best] = -1
		used++
	}
	return counts
}

// rebalance enforces the minPerNode floor (at least 1: every worker runs a
// loader) by moving samples, one at a time, from the currently largest
// shard to the most starved one. Deterministic: ties resolve to the lowest
// index, and the donor always gives up its last sample.
func rebalance(assign [][]int, minPerNode, samples int) {
	floor := minPerNode
	if floor < 1 {
		floor = 1
	}
	if floor*len(assign) > samples {
		panic(fmt.Sprintf("dataset: %d samples cannot give %d workers %d each", samples, len(assign), floor))
	}
	for {
		need, donor := -1, 0
		for i, a := range assign {
			if len(a) < floor && (need < 0 || len(a) < len(assign[need])) {
				need = i
			}
			if len(a) > len(assign[donor]) {
				donor = i
			}
		}
		if need < 0 {
			return
		}
		last := assign[donor][len(assign[donor])-1]
		assign[donor] = assign[donor][:len(assign[donor])-1]
		assign[need] = append(assign[need], last)
	}
}

// shardsFrom materializes per-worker shards from sample-index assignments.
func shardsFrom(d *Dataset, assign [][]int, kind string) []*Dataset {
	shards := make([]*Dataset, len(assign))
	for w, idxs := range assign {
		shards[w] = emptyLike(d, fmt.Sprintf("%s/worker%d-%s", d.Name, w, kind))
		for _, i := range idxs {
			shards[w].Samples = append(shards[w].Samples, d.Samples[i])
		}
	}
	return shards
}

func emptyLike(d *Dataset, name string) *Dataset {
	return &Dataset{Name: name, C: d.C, H: d.H, W: d.W, Classes: d.Classes}
}

// Loader yields minibatches cyclically, reshuffling at each epoch boundary.
type Loader struct {
	d     *Dataset
	batch int
	r     *rng.Source
	// shuffled is r's state before it drew order: the epoch's order is a
	// function of it, which is why a LoaderState need not carry the order.
	shuffled rng.State
	order    []int
	pos      int
	// Epochs counts completed passes over the shard.
	Epochs int
}

// NewLoader returns a loader with the given batch size. Batch is clamped to
// the dataset size.
func NewLoader(d *Dataset, batch int, seed uint64) *Loader {
	if d.Len() == 0 {
		panic("dataset: loader over empty dataset")
	}
	if batch < 1 {
		panic(fmt.Sprintf("dataset: batch %d < 1", batch))
	}
	if batch > d.Len() {
		batch = d.Len()
	}
	l := &Loader{d: d, batch: batch, r: rng.New(seed)}
	l.reshuffle()
	return l
}

func (l *Loader) reshuffle() {
	l.shuffled = l.r.State()
	l.order = l.r.Perm(l.d.Len())
	l.pos = 0
}

// Next returns the next minibatch (views into the dataset, not copies).
func (l *Loader) Next() (xs [][]float64, labels []int) {
	xs = make([][]float64, 0, l.batch)
	labels = make([]int, 0, l.batch)
	for len(xs) < l.batch {
		if l.pos == len(l.order) {
			l.Epochs++
			l.reshuffle()
		}
		s := l.d.Samples[l.order[l.pos]]
		l.pos++
		xs = append(xs, s.X)
		labels = append(labels, s.Label)
	}
	return xs, labels
}

// LoaderState is a Loader's complete serializable position in its minibatch
// stream: the shuffle RNG as it stood before it drew the current epoch's
// sample order (restoring redraws the order from it), the number of samples
// that order covers, the position within it, and the completed epochs.
// Restoring it resumes Next exactly where the captured loader left off —
// data cursors are part of a rank's round-boundary checkpoint (DESIGN.md §3).
type LoaderState struct {
	RNG                  rng.State
	Samples, Pos, Epochs int
}

// State captures the loader's current position.
func (l *Loader) State() LoaderState {
	return LoaderState{RNG: l.shuffled, Samples: len(l.order), Pos: l.pos, Epochs: l.Epochs}
}

// SetState restores a position captured by State. It returns an error, and
// leaves the loader as it was, if the state is not over this loader's
// dataset — one captured over another shard — if its position is outside the
// epoch, or if its RNG is the all-zero state seeding never produces (a state
// that lost the field).
func (l *Loader) SetState(st LoaderState) error {
	switch {
	case st.Samples != l.d.Len():
		return fmt.Errorf("dataset: loader state over %d samples for a dataset of %d", st.Samples, l.d.Len())
	case st.Pos < 0 || st.Pos > st.Samples:
		return fmt.Errorf("dataset: loader state pos %d of %d", st.Pos, st.Samples)
	case st.RNG.S == [4]uint64{}:
		return fmt.Errorf("dataset: loader state with an all-zero shuffle RNG")
	}
	l.r.SetState(st.RNG)
	l.reshuffle()
	l.pos, l.Epochs = st.Pos, st.Epochs
	return nil
}

// LoaderStateSize is the number of bytes AppendTo appends, whatever the
// dataset's size.
const LoaderStateSize = rng.StateSize + 3*8

// AppendTo appends the state's fixed word layout: the RNG state, then
// Samples, Pos and Epochs.
func (st LoaderState) AppendTo(dst []byte) []byte {
	return tensor.AppendInts(st.RNG.AppendTo(dst), []int{st.Samples, st.Pos, st.Epochs})
}

// ReadState restores a state AppendTo wrote, which must be all of b: its
// sample count must be this loader's dataset's, and SetState checks the rest.
func (l *Loader) ReadState(b []byte) error {
	if len(b) != LoaderStateSize {
		return fmt.Errorf("dataset: loader state of %d bytes, want %d", len(b), LoaderStateSize)
	}
	r, b, err := rng.ReadState(b)
	if err != nil {
		return fmt.Errorf("dataset: loader state: %w", err)
	}
	var words [3]int
	tensor.DecodeInts(words[:], b) // exactly sized by the check above
	return l.SetState(LoaderState{RNG: r, Samples: words[0], Pos: words[1], Epochs: words[2]})
}
