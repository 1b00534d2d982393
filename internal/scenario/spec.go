// Package scenario is the declarative experiment layer over the engine: a
// JSON Spec names an algorithm, a fleet size, a synthetic workload, a
// bandwidth distribution (or an explicit measured trace), and optional churn
// and straggler models, and the package assembles the corresponding
// algorithm over the sharded engine runtime and runs it against a
// bandwidth-accounted ledger. cmd/campaign (internal/campaign) sweeps a spec,
// or a directory of specs, over a parameter grid into a directory of results;
// comparing two commits is benchmark/'s job (benchmark/README.md).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/fleettrace"
	"sapspsgd/internal/graph"
	"sapspsgd/internal/nn"
)

// SpecSchemaVersion is the scenario file schema this package reads and
// writes. Bump it when a field changes meaning; Parse rejects other
// versions so stale specs fail loudly instead of silently misconfiguring a
// sweep. Version 2 gave "trace" to the fleet-replay block (with its sibling
// "partition"); the recorder flag that held the name before is gone, and
// Parse's unknown-field check refuses it.
const SpecSchemaVersion = 2

// Spec is one declarative fleet experiment.
type Spec struct {
	// SchemaVersion must equal SpecSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Name identifies the scenario in logs and run summaries; a campaign over
	// a directory of specs starts each cell ID with it.
	Name string `json:"name"`
	// Algo is the algorithm to run, one of algos.AlgoNames: saps | psgd |
	// topk-psgd | qsgd-psgd | d-psgd | dcd-psgd | ps-psgd | fedavg |
	// s-fedavg, randomchoose (saps with a uniformly random matching instead
	// of Algorithm 3 — the paper's Fig. 5 comparison), or one of the
	// asynchronous recipes adpsgd | gradpush (which require the async block).
	Algo string `json:"algo"`
	// Nodes is the trainer count (hub algorithms add their server rank on
	// top, exactly as algos.Recipe does).
	Nodes int `json:"nodes"`
	// Rounds is the number of synchronous communication rounds.
	Rounds int `json:"rounds"`
	// Seed derives every random stream of the run (model init, data,
	// matching, codecs), so a spec is a complete reproducibility capsule.
	Seed uint64 `json:"seed"`

	LR    float64 `json:"lr"`
	Batch int     `json:"batch"`
	// LocalSteps is the local SGD steps per round (SAPS, FedAvg); 0 means 1.
	LocalSteps int `json:"local_steps,omitempty"`
	// Compression is the SAPS family's shared-mask ratio c.
	Compression float64 `json:"compression,omitempty"`
	// C is the sparsifier ratio for topk-psgd, dcd-psgd and s-fedavg.
	C float64 `json:"c,omitempty"`
	// Levels is the QSGD level count.
	Levels int `json:"levels,omitempty"`
	// Fraction is the FedAvg per-round participation ratio.
	Fraction float64 `json:"fraction,omitempty"`

	// Gossip tunes Algorithm 3's thresholds (SAPS only).
	Gossip *GossipSpec `json:"gossip,omitempty"`

	Model     ModelSpec     `json:"model"`
	Data      DataSpec      `json:"data"`
	Bandwidth BandwidthSpec `json:"bandwidth"`

	// Trace replays a committed per-node CSV series (internal/fleettrace):
	// bandwidth multipliers reshape every algorithm's link environment each
	// round, and — with events enabled — join/leave events drive SAPS
	// membership, identically in the sim, sharded, and TCP backends. The
	// multipliers compose on top of bandwidth.jitter and the straggler
	// block; events compose with faults. Mutually exclusive with churn.
	Trace *TraceSpec `json:"trace,omitempty"`

	// Partition selects how the synthetic training set is split across the
	// fleet: IID (the default), Dirichlet label skew, or quantity skew —
	// the FedAvg-setting heterogeneity axis.
	Partition *PartitionSpec `json:"partition,omitempty"`

	// Churn switches SAPS to dynamic membership (leave/rejoin per round).
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Faults is the declarative fault-injection schedule (SAPS only):
	// scheduled crash/rejoin windows and seeded random worker mortality,
	// honored identically by the in-process engine (scheduled-dead workers
	// are excluded from the round plan) and the TCP runtime (the
	// coordinator crashes the corresponding worker processes and re-admits
	// scheduled rejoiners). Mutually exclusive with Churn.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Straggler slows a deterministic subset of workers' links, modelling
	// bandwidth-starved stragglers in an otherwise healthy fleet.
	Straggler *StragglerSpec `json:"straggler,omitempty"`

	// Async switches the run to the barrier-free event-driven engine and is
	// required exactly when Algo is an asynchronous recipe (adpsgd or
	// gradpush). Rounds then counts the gossip cycles each rank initiates
	// rather than synchronous rounds. Async runs are single-process
	// discrete-event simulations, so they exclude churn, faults, trace,
	// planner_only, bandwidth jitter, and engine sharding; the straggler
	// block still applies (it shapes the bandwidth environment).
	Async *AsyncSpec `json:"async,omitempty"`

	// Shards is the default engine shard count for this scenario (0 = one
	// shard per CPU). Sweeps usually override it.
	Shards int `json:"shards,omitempty"`

	// PlannerOnly runs the coordinator side alone (Algorithm 3 matching +
	// mask accounting + ledger charging) with no models, data, or workers —
	// the large-N scaling harness, where 50k-node planning fits in memory
	// that the full training fleet never could. The byte and simulated-time
	// totals are exactly what the full run would charge (the mask seed
	// stream and matchings are identical); FinalLoss is 0. Requires algo
	// saps or randomchoose, an MLP model, and no churn/faults/trace/
	// partition. Its per-round record (RunOptions.Rounds) and
	// RunOutput.MatchedMBps are Fig. 5's per-round matched bandwidth.
	PlannerOnly bool `json:"planner_only,omitempty"`

	// dir is the directory the spec was loaded from; trace files resolve
	// against it, so a spec's relative paths stay machine-independent (and
	// the canonical form never embeds an absolute path). Set by Load; empty
	// means the current working directory.
	dir string
	// file is the path Load read the spec from ("" for a parsed one).
	file string
}

// File returns the path the spec was loaded from ("" when it was parsed from
// bytes) — what an error about one of a directory's specs names.
func (s *Spec) File() string { return s.file }

// TracePath resolves the trace block's file against the spec's directory.
// It returns "" when the spec has no trace block.
func (s *Spec) TracePath() string {
	if s.Trace == nil {
		return ""
	}
	if filepath.IsAbs(s.Trace.File) || s.dir == "" {
		return s.Trace.File
	}
	return filepath.Join(s.dir, s.Trace.File)
}

// TraceSpec replays a committed fleet trace (see internal/fleettrace for
// the CSV schema and semantics).
type TraceSpec struct {
	// File is the CSV path, resolved relative to the spec file's directory.
	File string `json:"file"`
	// Interp evaluates bandwidth multipliers between samples: "hold" (the
	// default — each sample holds until the next) or "linear".
	Interp string `json:"interp,omitempty"`
	// Events enables membership replay: the trace's join/leave events
	// decide which workers are present each round. Requires algo saps (the
	// baselines have fixed topologies); without events only the bandwidth
	// multipliers apply, which every algorithm honors.
	Events bool `json:"events,omitempty"`
}

// PartitionSpec selects the data split across the fleet.
type PartitionSpec struct {
	// Kind is "iid" (the default when the block is omitted), "dirichlet"
	// (label skew: each class spread over workers by a symmetric
	// Dirichlet-alpha draw), "quantity" (size skew: shard sizes follow the
	// Dirichlet draw), or "label" (the FedAvg paper's pathological split:
	// the label-sorted set cut into two shards per worker).
	Kind string `json:"kind"`
	// Alpha is the Dirichlet concentration (> 0; smaller = more skew).
	// Required by dirichlet and quantity, meaningless for iid and label.
	Alpha float64 `json:"alpha,omitempty"`
	// MinPerNode floors every shard's sample count (default 1 — every
	// worker must be able to run a loader).
	MinPerNode int `json:"min_per_node,omitempty"`
	// Seed draws the split; 0 means the spec seed.
	Seed uint64 `json:"seed,omitempty"`
}

// GossipSpec is Algorithm 3's tuning (SAPS only).
type GossipSpec struct {
	// BThres is the bandwidth threshold (MB/s) of the B* filter.
	BThres float64 `json:"b_thres"`
	// TThres is the recency window (rounds) of the reconnection rule.
	TThres int `json:"t_thres"`
}

// ModelSpec describes the per-worker model; its input geometry and class
// count come from the data spec.
type ModelSpec struct {
	// Arch is the model family: "mlp" (the default when omitted),
	// "mnist-cnn", "cifar-cnn" or "resnet" — the paper's three networks.
	Arch string `json:"arch,omitempty"`
	// Hidden lists the MLP's hidden widths.
	Hidden []int `json:"hidden"`
	// Width scales the CNN families' channel counts (1.0 = paper scale;
	// required by every family but the MLP).
	Width float64 `json:"width,omitempty"`
	// Blocks is the ResNet's basic blocks per stage (0 = 3, ResNet-20).
	Blocks int `json:"blocks,omitempty"`
}

// arch maps the block onto the nn layer's family vocabulary.
func (m *ModelSpec) arch() nn.Arch {
	return nn.Arch{Name: m.Arch, Width: m.Width, Hidden: m.Hidden, Blocks: m.Blocks}
}

// DataSpec describes the synthetic training task.
type DataSpec struct {
	// Samples is the total training-set size before sharding.
	Samples int `json:"samples"`
	// Classes is the label count (also the model's output width).
	Classes int `json:"classes"`
	// C, H and W select the synthetic image task of that geometry (two
	// prototypes per class, pixel noise Noise — the stand-in for MNIST and
	// CIFAR-10, DESIGN.md §2). All three omitted keeps the 1×8×8 tiny
	// task.
	C int `json:"c,omitempty"`
	H int `json:"h,omitempty"`
	W int `json:"w,omitempty"`
	// Valid holds out that many extra samples, drawn from the same
	// prototypes, and makes the synchronous loop evaluate the
	// worker-averaged model on them every max(1, rounds/20) rounds and
	// after the last one (RunOutput.Evals). Synchronous image tasks only;
	// 0 = no evaluation.
	Valid int `json:"valid,omitempty"`
	// Noise is the image task's pixel-noise standard deviation; 0 means
	// 0.4. Image task only.
	Noise float64 `json:"noise,omitempty"`
	// Seed generates the dataset; 0 means the spec seed.
	Seed uint64 `json:"seed,omitempty"`
}

// image reports whether the block selects the image task.
func (d *DataSpec) image() bool { return d.C != 0 || d.H != 0 || d.W != 0 }

// shape is the task's input geometry.
func (d *DataSpec) shape() nn.Shape {
	if !d.image() {
		return nn.Shape{C: 1, H: 8, W: 8} // dataset.TinyTask
	}
	return nn.Shape{C: d.C, H: d.H, W: d.W}
}

// BandwidthSpec describes the pairwise link environment.
type BandwidthSpec struct {
	// Kind selects the generator: "uniform" (links drawn from (Lo, Hi]
	// MB/s), "clustered" (Fast within clusters, Slow across, ±50% jitter),
	// "cities" (the paper's measured 14-city matrix; requires Nodes == 14),
	// "matrix" (an explicit symmetric trace in MB/s), or the large-N sparse
	// generators "sparse-uniform" / "sparse-clustered" (ring-plus-random-
	// chords topologies of the given Degree, O(Nodes·Degree) links where the
	// other kinds hold all N² pairs).
	Kind string `json:"kind"`
	// Lo and Hi bound the uniform draw in MB/s.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Clusters, Fast and Slow parameterize the clustered generator.
	Clusters int     `json:"clusters,omitempty"`
	Fast     float64 `json:"fast,omitempty"`
	Slow     float64 `json:"slow,omitempty"`
	// Degree is the sparse generators' target mean degree (links per node,
	// in [2, Nodes-1]); sparse topologies need at least 3 nodes.
	Degree int `json:"degree,omitempty"`
	// Matrix is the explicit Nodes×Nodes link-speed trace for kind
	// "matrix" (MB/s; asymmetric entries are min-symmetrized like every
	// other environment).
	Matrix [][]float64 `json:"matrix,omitempty"`
	// Jitter, when positive, makes the environment time-varying
	// (netsim.RoundEnv): every round each link's speed is its base value
	// scaled by an independent multiplicative draw from
	// [1-jitter, 1+jitter] — the paper's "the bandwidth between two
	// workers may also vary". Must lie in [0, 1); 0 keeps the links
	// static. The jitter stream derives from the spec seed.
	Jitter float64 `json:"jitter,omitempty"`
}

// The membership blocks are the algos-layer descriptions themselves: one
// vocabulary for the spec, the in-process planner and the TCP coordinator.
type (
	// ChurnSpec is the random leave/join process (leave_prob, join_prob,
	// min_active).
	ChurnSpec = algos.ChurnModel
	// CrashSpec kills one worker at a round boundary: the rank is dead for
	// rounds [round, round+rejoin_after) and rejoins at round+rejoin_after;
	// rejoin_after 0 (or omitted) means it never returns.
	CrashSpec = algos.FaultEvent
	// MortalitySpec is seeded random permanent worker death: before each
	// round every surviving worker dies with probability prob (drawn from
	// the spec seed), never to return; deaths stop at the min_alive floor.
	MortalitySpec = algos.FaultMortality
)

// FaultsSpec is the declarative fault-injection block of a scenario.
type FaultsSpec struct {
	// Crashes are scheduled crash/rejoin windows.
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// Mortality adds seeded random permanent worker deaths.
	Mortality *MortalitySpec `json:"mortality,omitempty"`
}

// Schedule binds the block to a fleet of n workers and the spec's seed.
func (f *FaultsSpec) Schedule(n int, seed uint64) algos.FaultSchedule {
	return algos.FaultSchedule{N: n, Seed: seed, Events: f.Crashes, Mortality: f.Mortality}
}

// AsyncSpec is the virtual-compute model of an asynchronous run: how long
// each rank's local SGD block takes on the event clock between gossips.
// Durations are virtual time only — they shape the event timeline (and so
// the rendezvous order), never the numerics of the training streams.
type AsyncSpec struct {
	// ComputeSeconds is the mean virtual compute duration per gossip cycle
	// (> 0).
	ComputeSeconds float64 `json:"compute_seconds"`
	// Jitter in [0, 1) scales each compute block by an independent uniform
	// draw from [1-jitter, 1+jitter].
	Jitter float64 `json:"jitter,omitempty"`
	// SlowFraction in [0, 1] marks that share of ranks (rounded up, drawn
	// from the spec seed) as compute stragglers.
	SlowFraction float64 `json:"slow_fraction,omitempty"`
	// SlowFactor (≥ 1, required when slow_fraction > 0) multiplies the
	// slow ranks' compute durations.
	SlowFactor float64 `json:"slow_factor,omitempty"`
	// SampleEvery emits one convergence-series sample per that many
	// completed gossips fleet-wide (0 = one per node count, roughly a
	// synchronous round's worth).
	SampleEvery int `json:"sample_every,omitempty"`
}

// StragglerSpec slows a deterministic worker subset's links.
type StragglerSpec struct {
	// Fraction of workers (rounded up, at least one when positive) whose
	// links are slowed. The subset is drawn from the spec seed.
	Fraction float64 `json:"fraction"`
	// Slowdown divides every link touching a straggler (≥ 1).
	Slowdown float64 `json:"slowdown"`
}

// Parse decodes a strict-schema spec: unknown fields are rejected, and the
// result is validated.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses one spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.dir, s.file = filepath.Dir(path), path
	return s, nil
}

// LoadPath loads specs from a file or a directory: a directory loads every
// *.json spec in it (LoadDir), a file loads that one spec — how a campaign
// resolves its base.
func LoadPath(path string) ([]*Spec, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return LoadDir(path)
	}
	s, err := Load(path)
	if err != nil {
		return nil, err
	}
	return []*Spec{s}, nil
}

// LoadDir loads every *.json spec under dir (non-recursive), sorted by file
// name so sweep order is stable.
func LoadDir(dir string) ([]*Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	specs := make([]*Spec, 0, len(names))
	for _, name := range names {
		s, err := Load(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// Clone returns a deep copy of the spec: mutating the copy (sweep round
// overrides, campaign grid cells) never alters the loaded original. Every
// pointer block and slice is duplicated.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Model.Hidden = append([]int(nil), s.Model.Hidden...)
	if s.Bandwidth.Matrix != nil {
		c.Bandwidth.Matrix = make([][]float64, len(s.Bandwidth.Matrix))
		for i, row := range s.Bandwidth.Matrix {
			c.Bandwidth.Matrix[i] = append([]float64(nil), row...)
		}
	}
	if s.Gossip != nil {
		g := *s.Gossip
		c.Gossip = &g
	}
	if s.Churn != nil {
		ch := *s.Churn
		c.Churn = &ch
	}
	if s.Faults != nil {
		f := FaultsSpec{Crashes: append([]CrashSpec(nil), s.Faults.Crashes...)}
		if s.Faults.Mortality != nil {
			m := *s.Faults.Mortality
			f.Mortality = &m
		}
		c.Faults = &f
	}
	if s.Trace != nil {
		tr := *s.Trace
		c.Trace = &tr
	}
	if s.Partition != nil {
		p := *s.Partition
		c.Partition = &p
	}
	if s.Straggler != nil {
		st := *s.Straggler
		c.Straggler = &st
	}
	if s.Async != nil {
		a := *s.Async
		c.Async = &a
	}
	return &c
}

// Canonical renders the spec in the stable on-disk form (indented JSON with
// a trailing newline) — what the golden-file tests pin.
func (s *Spec) Canonical() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Recipe maps the spec onto the algorithm recipe every deployment assembles
// its ranks from, in one process or one per machine.
func (s *Spec) Recipe() algos.Recipe {
	return algos.Recipe{
		Algo:        s.Algo,
		Workers:     s.Nodes,
		LR:          s.LR,
		Batch:       s.Batch,
		Seed:        s.Seed,
		Compression: s.Compression,
		LocalSteps:  s.localSteps(),
		C:           s.C,
		Levels:      s.Levels,
		Fraction:    s.Fraction,
	}
}

func (s *Spec) localSteps() int {
	if s.LocalSteps < 1 {
		return 1
	}
	return s.LocalSteps
}

// Validate returns an error describing the first invalid field, if any.
func (s *Spec) Validate() error {
	switch {
	case s.SchemaVersion != SpecSchemaVersion:
		return fmt.Errorf("scenario: schema_version %d, want %d", s.SchemaVersion, SpecSchemaVersion)
	case s.Name == "":
		return fmt.Errorf("scenario: missing name")
	case s.Nodes < 1 || s.Nodes > graph.MaxVertices:
		return fmt.Errorf("scenario %s: %d nodes, want 1..%d", s.Name, s.Nodes, graph.MaxVertices)
	case s.Rounds < 1:
		return fmt.Errorf("scenario %s: %d rounds", s.Name, s.Rounds)
	case s.Shards < 0:
		return fmt.Errorf("scenario %s: %d shards", s.Name, s.Shards)
	case s.LocalSteps < 0:
		return fmt.Errorf("scenario %s: local_steps %d (0 means 1)", s.Name, s.LocalSteps)
	case s.Data.Samples < s.Nodes:
		return fmt.Errorf("scenario %s: %d samples for %d nodes", s.Name, s.Data.Samples, s.Nodes)
	case s.Data.Classes < 2:
		return fmt.Errorf("scenario %s: %d classes", s.Name, s.Data.Classes)
	case s.Data.Classes > s.Data.Samples:
		// Labels are dealt round-robin: the classes past the sample count
		// would never appear.
		return fmt.Errorf("scenario %s: data.classes %d over data.samples %d leaves classes with no sample", s.Name, s.Data.Classes, s.Data.Samples)
	case s.Data.image() && (s.Data.C < 1 || s.Data.H < 1 || s.Data.W < 1):
		return fmt.Errorf("scenario %s: data geometry %dx%dx%d (give c, h and w, or none)", s.Name, s.Data.C, s.Data.H, s.Data.W)
	case s.Data.Valid < 0 || s.Data.Valid >= s.Data.Samples:
		return fmt.Errorf("scenario %s: %d validation samples beside %d training samples", s.Name, s.Data.Valid, s.Data.Samples)
	case s.Data.Valid > 0 && !s.Data.image():
		return fmt.Errorf("scenario %s: data.valid needs the image task (give c, h and w)", s.Name)
	case !(s.Data.Noise >= 0) || math.IsInf(s.Data.Noise, 1):
		return fmt.Errorf("scenario %s: data.noise %v", s.Name, s.Data.Noise)
	case s.Data.Noise > 0 && !s.Data.image():
		return fmt.Errorf("scenario %s: data.noise needs the image task (give c, h and w)", s.Name)
	}
	if err := s.Model.arch().Validate(s.Data.shape(), s.Data.Classes); err != nil {
		return fmt.Errorf("scenario %s: model: %w", s.Name, err)
	}
	// The recipe validation owns the per-algorithm parameter rules (and the
	// unknown-algorithm rejection).
	if err := s.Recipe().Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Model.arch().IsMLP() {
		// Build checks the other families, whose size takes a model to count.
		if err := s.checkRatio(nn.MLPParamCount(s.Data.shape().Dim(), s.Model.Hidden, s.Data.Classes)); err != nil {
			return err
		}
	}
	if err := s.Bandwidth.validate(s.Name, s.Nodes); err != nil {
		return err
	}
	r := s.Recipe()
	// An all-reduce, an all-gather and a uniform matching may put any two
	// nodes on one link; a sparse environment has none between most pairs.
	if r.AnyPair() && strings.HasPrefix(s.Bandwidth.Kind, "sparse-") {
		return fmt.Errorf("scenario %s: algo %s may exchange between any two nodes, but %s bandwidth links only a few of each node's peers (use a dense bandwidth kind, or saps, d-psgd or dcd-psgd)",
			s.Name, s.Algo, s.Bandwidth.Kind)
	}
	if s.PlannerOnly {
		if !r.Pairwise() {
			return fmt.Errorf("scenario %s: planner_only requires algo %s, have %s", s.Name, algoList(algos.Recipe.Pairwise), s.Algo)
		}
		if !s.Model.arch().IsMLP() {
			return fmt.Errorf("scenario %s: planner_only sizes the mask from the MLP's parameter count, have arch %s", s.Name, s.Model.Arch)
		}
		if s.Churn != nil || s.Faults != nil || s.Trace != nil || s.Partition != nil {
			return fmt.Errorf("scenario %s: planner_only excludes churn/faults/trace/partition", s.Name)
		}
	}
	if tr := s.Trace; tr != nil {
		if tr.File == "" {
			return fmt.Errorf("scenario %s: trace block missing file", s.Name)
		}
		if _, err := fleettrace.ParseInterp(tr.Interp); err != nil {
			return fmt.Errorf("scenario %s: trace interp %q (want hold or linear)", s.Name, tr.Interp)
		}
		if tr.Events && !r.Adaptive() {
			return fmt.Errorf("scenario %s: trace events require algo %s, have %s (drop events to replay bandwidth only)", s.Name, algoList(algos.Recipe.Adaptive), s.Algo)
		}
		if s.Churn != nil {
			return fmt.Errorf("scenario %s: trace and churn are mutually exclusive (trace events already script membership)", s.Name)
		}
	}
	if p := s.Partition; p != nil {
		switch p.Kind {
		case "iid", "label":
			if p.Alpha != 0 {
				return fmt.Errorf("scenario %s: partition %s takes no alpha", s.Name, p.Kind)
			}
			if p.Kind == "label" && s.Data.Samples < 2*s.Nodes {
				return fmt.Errorf("scenario %s: partition label cuts two shards per node, %d samples cannot fill %d", s.Name, s.Data.Samples, 2*s.Nodes)
			}
		case "dirichlet", "quantity":
			if !(p.Alpha > 0) {
				return fmt.Errorf("scenario %s: partition %s needs alpha > 0, have %v", s.Name, p.Kind, p.Alpha)
			}
		default:
			return fmt.Errorf("scenario %s: unknown partition kind %q (want iid, dirichlet, quantity or label)", s.Name, p.Kind)
		}
		if p.MinPerNode < 0 {
			return fmt.Errorf("scenario %s: partition min_per_node %d", s.Name, p.MinPerNode)
		}
		floor := p.MinPerNode
		if floor < 1 {
			floor = 1
		}
		if floor*s.Nodes > s.Data.Samples {
			return fmt.Errorf("scenario %s: partition floor %d × %d nodes exceeds %d samples", s.Name, floor, s.Nodes, s.Data.Samples)
		}
	}
	if g := s.Gossip; g != nil {
		if !r.Adaptive() {
			return fmt.Errorf("scenario %s: gossip thresholds require algo %s, have %s", s.Name, algoList(algos.Recipe.Adaptive), s.Algo)
		}
		if g.BThres < 0 || g.TThres < 1 {
			return fmt.Errorf("scenario %s: gossip b_thres %v / t_thres %d", s.Name, g.BThres, g.TThres)
		}
	}
	if s.Churn != nil && !r.Adaptive() {
		return fmt.Errorf("scenario %s: churn model requires algo %s, have %s", s.Name, algoList(algos.Recipe.Adaptive), s.Algo)
	}
	if f := s.Faults; f != nil {
		if !r.Adaptive() {
			return fmt.Errorf("scenario %s: faults require algo %s, have %s", s.Name, algoList(algos.Recipe.Adaptive), s.Algo)
		}
		if s.Churn != nil {
			return fmt.Errorf("scenario %s: faults and churn are mutually exclusive", s.Name)
		}
		if len(f.Crashes) == 0 && f.Mortality == nil {
			return fmt.Errorf("scenario %s: empty faults block (drop it or add crashes/mortality)", s.Name)
		}
		for _, c := range f.Crashes {
			if c.Round >= s.Rounds {
				return fmt.Errorf("scenario %s: crash of rank %d at round %d, but the run has only %d rounds",
					s.Name, c.Rank, c.Round, s.Rounds)
			}
			if c.RejoinAfter < 0 {
				return fmt.Errorf("scenario %s: crash of rank %d has negative rejoin_after %d", s.Name, c.Rank, c.RejoinAfter)
			}
		}
	}
	// The membership sources own their parameter rules (churn probabilities
	// and floor, crash windows, mortality floor).
	if err := s.membership(nil).Check(s.Nodes, s.Seed, 0); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if st := s.Straggler; st != nil {
		if st.Fraction < 0 || st.Fraction > 1 {
			return fmt.Errorf("scenario %s: straggler fraction %v", s.Name, st.Fraction)
		}
		if st.Slowdown < 1 {
			return fmt.Errorf("scenario %s: straggler slowdown %v", s.Name, st.Slowdown)
		}
	}
	// The async block and the asynchronous recipes come as a pair; the
	// churn/faults/trace events/planner_only/gossip exclusions hold
	// automatically (each of those already requires an adaptive or pairwise
	// recipe, and neither is asynchronous).
	if r.Async() != (s.Async != nil) {
		if s.Async == nil {
			return fmt.Errorf("scenario %s: algo %s requires the async block", s.Name, s.Algo)
		}
		return fmt.Errorf("scenario %s: async block requires an asynchronous algo (%s), have %s", s.Name, algoList(algos.Recipe.Async), s.Algo)
	}
	if a := s.Async; a != nil {
		switch {
		case a.ComputeSeconds <= 0:
			return fmt.Errorf("scenario %s: async compute_seconds %v", s.Name, a.ComputeSeconds)
		case a.Jitter < 0 || a.Jitter >= 1:
			return fmt.Errorf("scenario %s: async jitter %v outside [0, 1)", s.Name, a.Jitter)
		case a.SlowFraction < 0 || a.SlowFraction > 1:
			return fmt.Errorf("scenario %s: async slow_fraction %v", s.Name, a.SlowFraction)
		case a.SlowFraction > 0 && a.SlowFactor < 1:
			return fmt.Errorf("scenario %s: async slow_factor %v with slow_fraction %v (need ≥ 1)", s.Name, a.SlowFactor, a.SlowFraction)
		case a.SampleEvery < 0:
			return fmt.Errorf("scenario %s: async sample_every %d", s.Name, a.SampleEvery)
		case s.Shards != 0:
			return fmt.Errorf("scenario %s: async runs have no engine shards (drop shards)", s.Name)
		case s.Bandwidth.Jitter > 0:
			return fmt.Errorf("scenario %s: async runs use a static bandwidth environment (drop bandwidth.jitter)", s.Name)
		case s.Trace != nil:
			return fmt.Errorf("scenario %s: async runs use a static bandwidth environment (drop trace)", s.Name)
		case s.Data.Valid > 0:
			return fmt.Errorf("scenario %s: async runs evaluate no validation split (drop data.valid)", s.Name)
		}
	}
	return nil
}

// algoList names the algorithms whose recipe answers has with true, for an
// error about a block only they read.
func algoList(has func(algos.Recipe) bool) string {
	return strings.Join(algos.Names(has), " or ")
}

// ratio is the field the spec's algorithm reads its compression ratio from
// (algos.Recipe.RatioField), nil for an algorithm with none.
func (s *Spec) ratio() *float64 {
	switch s.Recipe().RatioField() {
	case "compression":
		return &s.Compression
	case "c":
		return &s.C
	}
	return nil
}

// SetRatio lands the paper's one compression ratio c (a worker sends about
// 1/c of its entries) on the field the spec's algorithm reads it from: the
// shared-mask ratio of the SAPS family or a sparsifier's budget N/c. It
// reports false, changing nothing, for an algorithm without a ratio.
func (s *Spec) SetRatio(c float64) bool {
	p := s.ratio()
	if p == nil {
		return false
	}
	*p = c
	return true
}

// checkRatio rejects a sparsifier ratio above the model's dim parameters: a
// SAPS mask that keeps none of them, or a top-k / random-k budget N/c below
// one entry.
func (s *Spec) checkRatio(dim int) error {
	if p := s.ratio(); p != nil && *p > float64(dim) {
		return fmt.Errorf("scenario %s: %s %v exceeds the model's %d parameters: it would keep none of them", s.Name, s.Recipe().RatioField(), *p, dim)
	}
	return nil
}

// Retarget returns a copy of the spec that runs algo instead, dropping the
// blocks algo does not read rather than leaving Validate to refuse them —
// how a campaign's algo axis derives every cell from one base:
//   - gossip, churn, faults and the trace's join/leave events go unless
//     algo is adaptive (the trace block itself stays: its bandwidth
//     multipliers apply to every synchronous algorithm);
//   - compression goes unless algo reads it;
//   - an asynchronous algo drops the trace block (it runs on a static
//     environment), a synchronous one the async block.
func (s *Spec) Retarget(algo string) *Spec {
	c := s.Clone()
	c.Algo = algo
	r := c.Recipe()
	if !r.Adaptive() {
		c.Gossip, c.Churn, c.Faults = nil, nil, nil
		if c.Trace != nil {
			c.Trace.Events = false
		}
	}
	if c.ratio() != &c.Compression {
		c.Compression = 0
	}
	if r.Async() {
		c.Trace = nil
	} else {
		c.Async = nil
	}
	return c
}

func (b *BandwidthSpec) validate(name string, nodes int) error {
	switch b.Kind {
	case "uniform":
		if b.Lo < 0 || b.Hi <= 0 || b.Hi < b.Lo {
			return fmt.Errorf("scenario %s: uniform bandwidth (%v, %v] MB/s", name, b.Lo, b.Hi)
		}
	case "sparse-uniform":
		if b.Lo < 0 || b.Hi <= 0 || b.Hi < b.Lo {
			return fmt.Errorf("scenario %s: sparse-uniform bandwidth (%v, %v] MB/s", name, b.Lo, b.Hi)
		}
		if err := b.validateDegree(name, nodes); err != nil {
			return err
		}
	case "clustered", "sparse-clustered":
		if b.Clusters < 1 || b.Fast <= 0 || b.Slow <= 0 {
			return fmt.Errorf("scenario %s: %s bandwidth %d clusters fast=%v slow=%v", name, b.Kind, b.Clusters, b.Fast, b.Slow)
		}
		if b.Clusters > nodes {
			return fmt.Errorf("scenario %s: %s bandwidth has %d clusters for %d nodes: no two nodes would share one, every link would be slow", name, b.Kind, b.Clusters, nodes)
		}
		if b.Kind == "sparse-clustered" {
			if err := b.validateDegree(name, nodes); err != nil {
				return err
			}
		}
	case "cities":
		if nodes != 14 {
			return fmt.Errorf("scenario %s: cities bandwidth needs 14 nodes, have %d", name, nodes)
		}
	case "matrix":
		if len(b.Matrix) != nodes {
			return fmt.Errorf("scenario %s: bandwidth matrix of %d rows for %d nodes", name, len(b.Matrix), nodes)
		}
		for i, row := range b.Matrix {
			if len(row) != nodes {
				return fmt.Errorf("scenario %s: bandwidth matrix row %d has %d entries", name, i, len(row))
			}
			for j, v := range row {
				if v < 0 {
					return fmt.Errorf("scenario %s: negative bandwidth %v on link %d-%d", name, v, i, j)
				}
				if i != j && v == 0 {
					return fmt.Errorf("scenario %s: zero-bandwidth link %d-%d", name, i, j)
				}
			}
		}
	default:
		return fmt.Errorf("scenario %s: unknown bandwidth kind %q", name, b.Kind)
	}
	if b.Jitter < 0 || b.Jitter >= 1 {
		return fmt.Errorf("scenario %s: bandwidth jitter %v outside [0, 1)", name, b.Jitter)
	}
	return nil
}

func (b *BandwidthSpec) validateDegree(name string, nodes int) error {
	if nodes < 3 {
		return fmt.Errorf("scenario %s: sparse bandwidth needs at least 3 nodes, have %d", name, nodes)
	}
	if b.Degree < 2 || b.Degree > nodes-1 {
		return fmt.Errorf("scenario %s: sparse bandwidth degree %d outside [2, %d]", name, b.Degree, nodes-1)
	}
	return nil
}
