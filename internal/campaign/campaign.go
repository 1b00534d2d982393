// Package campaign is the experiment-campaign orchestrator over the
// scenario layer: a strict-schema JSON spec names a base scenario — or a
// directory of them — and a parameter grid (algorithm, compression ratio,
// fleet size, rounds, bandwidth environments, fleet traces, data splits,
// seeds, engine shard counts), and the package expands the grid over every
// base into a deterministic run matrix, executes the cells concurrently
// across a bounded worker pool, journals every completed cell to an
// append-only manifest so an interrupted campaign resumes without re-running
// finished cells, and aggregates the per-cell results into the paper-style
// artifacts (loss-vs-round and loss-vs-traffic series, per-algo traffic
// totals).
// cmd/campaign is the CLI driver.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/scenario"
)

// SpecSchemaVersion is the campaign file schema this package reads. Bump it
// when a field changes meaning; Parse rejects other versions so stale specs
// fail loudly instead of silently reshaping a sweep.
const SpecSchemaVersion = 1

// Spec is one declarative experiment campaign.
type Spec struct {
	// SchemaVersion must equal SpecSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Name identifies the campaign in logs and aggregate artifacts.
	Name string `json:"name"`
	// Base is the path of the base scenario spec every grid cell derives
	// from, resolved relative to the campaign file's directory — or of a
	// directory, whose every *.json scenario spec is a base in file-name
	// order (scenario.LoadPath's rule): the grid is crossed over each, and
	// cell IDs start with the base spec's name. A campaign file lives
	// beside, not inside, the directory it sweeps.
	Base string `json:"base"`
	// Workers bounds the number of cells executing concurrently
	// (0 = GOMAXPROCS). Each cell is itself a full engine run, so modest
	// values usually saturate the machine.
	Workers int `json:"workers,omitempty"`
	// PerAlgo gives grid algorithms their own hyperparameters where the
	// paper's comparison (§IV-A) does not share one value: TopK-PSGD runs at
	// c = 1000, DCD-PSGD at c = 4, and only the FedAvg family takes several
	// local steps per round. Keys must appear on the algo axis.
	PerAlgo map[string]AlgoParams `json:"per_algo,omitempty"`
	// TargetAcc, when positive, adds the time-to-target table (Table IV):
	// each cell's traffic and simulated time at the first evaluation whose
	// validation accuracy reaches it.
	TargetAcc float64 `json:"target_acc,omitempty"`
	// Grid is the parameter grid crossed into the run matrix.
	Grid Grid `json:"grid"`

	// dir is the campaign file's directory, for resolving Base.
	dir string
	// baseIsDir records that Base names a directory, so cell IDs carry the
	// base spec's name. Set by LoadBase.
	baseIsDir bool
}

// AlgoParams is one algorithm's entry in Spec.PerAlgo; a zero field keeps
// the base scenario's value.
type AlgoParams struct {
	// Compression is the algorithm's compression ratio c, landing on its
	// own knob exactly like the grid's compression axis (which, when swept,
	// overrides it).
	Compression float64 `json:"compression,omitempty"`
	// LocalSteps is the algorithm's local SGD steps per round.
	LocalSteps int `json:"local_steps,omitempty"`
}

// Grid lists the swept axes. An omitted (empty) axis keeps the base
// scenario's value; the run matrix is the cartesian product of the
// non-empty axes, expanded in the fixed nesting order algo › compression ›
// nodes › rounds › bandwidth › trace › partition › seed › shards (innermost
// varies fastest), so the same spec always yields the same cell ordering. A
// grid with no axis at all is one cell per base: the base itself.
type Grid struct {
	// Algo sweeps the algorithm (any -algo value the scenario layer
	// accepts, the asynchronous recipes included). Each cell's spec is the
	// base retargeted to the cell's algorithm (scenario.Spec.Retarget),
	// which drops the blocks that algorithm does not read instead of
	// failing the cell. Asynchronous cells require the base to carry an
	// async block and run unsharded over a static environment on the
	// event-driven engine, so the trace and shards axes collapse for them.
	Algo []string `json:"algo,omitempty"`
	// Nodes sweeps the trainer count.
	Nodes []int `json:"nodes,omitempty"`
	// Rounds sweeps the round count.
	Rounds []int `json:"rounds,omitempty"`
	// Bandwidth sweeps the link environment; each entry is a full
	// scenario bandwidth block (kind, parameters, jitter) plus an
	// optional name used in cell IDs (defaults to the kind, which must
	// then be unique across the axis).
	Bandwidth []GridBandwidth `json:"bandwidth,omitempty"`
	// Compression sweeps the paper's compression ratio c (≥ 1): a worker
	// transmits ~1/c of its entries. The value lands on the field the
	// algorithm reads its ratio from (scenario.Spec.SetRatio). For an
	// algorithm without a ratio the axis collapses: only one cell is
	// generated, with the base spec's parameters.
	Compression []float64 `json:"compression,omitempty"`
	// Traces sweeps the fleet-trace replay; each entry is a full scenario
	// trace block (file, interp, events) plus an optional name used in cell
	// IDs (defaults to the file's base name without extension). An entry
	// with an empty file clears the base's trace block — a static-network
	// control cell — and must carry a name. Trace files resolve against the
	// base scenario's directory, exactly as if the block were written there.
	// Membership events only drive an adaptive algorithm; on the others the
	// entry degrades to bandwidth-multiplier replay (events are dropped).
	Traces []GridTrace `json:"traces,omitempty"`
	// Partition sweeps the data split; each entry is a full scenario
	// partition block (kind, alpha, min_per_node) plus an optional name
	// used in cell IDs (defaults to the kind). A kind-"iid" entry clears
	// the base's partition block.
	Partition []GridPartition `json:"partition,omitempty"`
	// Seeds sweeps the reproducibility seed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Shards sweeps the engine shard count (the scenario shards field).
	Shards []int `json:"shards,omitempty"`
}

// GridBandwidth is one bandwidth-axis entry: a scenario bandwidth block
// plus the name cell IDs use.
type GridBandwidth struct {
	// Name labels the environment in cell IDs and aggregates. Optional;
	// defaults to the kind.
	Name string `json:"name,omitempty"`
	scenario.BandwidthSpec
}

// label returns the entry's cell-ID label.
func (g *GridBandwidth) label() string {
	if g.Name != "" {
		return g.Name
	}
	return g.Kind
}

// GridTrace is one trace-axis entry: a scenario trace block plus the name
// cell IDs use. An empty File means "no trace" (the base's block is
// cleared), in which case Name is mandatory.
type GridTrace struct {
	// Name labels the trace in cell IDs and aggregates. Optional when File
	// is set; defaults to the file's base name without extension.
	Name string `json:"name,omitempty"`
	scenario.TraceSpec
}

// label returns the entry's cell-ID label.
func (g *GridTrace) label() string {
	if g.Name != "" {
		return g.Name
	}
	base := filepath.Base(g.File)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// GridPartition is one partition-axis entry: a scenario partition block
// plus the name cell IDs use.
type GridPartition struct {
	// Name labels the split in cell IDs and aggregates. Optional; defaults
	// to the kind.
	Name string `json:"name,omitempty"`
	scenario.PartitionSpec
}

// label returns the entry's cell-ID label.
func (g *GridPartition) label() string {
	if g.Name != "" {
		return g.Name
	}
	return g.Kind
}

// Parse decodes a strict-schema campaign spec: unknown fields are rejected
// and the result is validated. The base path resolves against dir.
func Parse(data []byte, dir string) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Spec
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: trailing data after spec")
	}
	c.dir = dir
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Load reads and parses one campaign file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Parse(data, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// LoadBase loads the campaign's base scenarios: the one spec Base names, or
// every spec of the directory it names.
func (c *Spec) LoadBase() ([]*scenario.Spec, error) {
	path := c.Base
	if !filepath.IsAbs(path) {
		path = filepath.Join(c.dir, path)
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	c.baseIsDir = info.IsDir()
	return scenario.LoadPath(path)
}

// Validate returns an error describing the first invalid campaign-level
// field, if any. Per-cell scenario validity is checked by Expand, which can
// name the offending cell.
func (c *Spec) Validate() error {
	switch {
	case c.SchemaVersion != SpecSchemaVersion:
		return fmt.Errorf("campaign: schema_version %d, want %d", c.SchemaVersion, SpecSchemaVersion)
	case c.Name == "":
		return fmt.Errorf("campaign: missing name")
	case c.Base == "":
		return fmt.Errorf("campaign: missing base scenario path")
	case c.Workers < 0:
		return fmt.Errorf("campaign %s: %d workers", c.Name, c.Workers)
	case c.TargetAcc < 0 || c.TargetAcc > 1:
		return fmt.Errorf("campaign %s: target_acc %v outside [0, 1]", c.Name, c.TargetAcc)
	}
	g := &c.Grid
	for algo, p := range c.PerAlgo {
		switch {
		case !slices.Contains(g.Algo, algo):
			return fmt.Errorf("campaign %s: per_algo entry %q is not on the algo axis", c.Name, algo)
		case p.Compression != 0 && (p.Compression < 1 || algos.Recipe{Algo: algo}.RatioField() == ""):
			return fmt.Errorf("campaign %s: per_algo %s compression %v (want ≥ 1 on an algorithm with a ratio knob)", c.Name, algo, p.Compression)
		case p.LocalSteps < 0:
			return fmt.Errorf("campaign %s: per_algo %s local_steps %d", c.Name, algo, p.LocalSteps)
		}
	}
	for _, n := range g.Nodes {
		if n < 1 {
			return fmt.Errorf("campaign %s: grid nodes %d", c.Name, n)
		}
	}
	for _, r := range g.Rounds {
		if r < 1 {
			return fmt.Errorf("campaign %s: grid rounds %d", c.Name, r)
		}
	}
	for _, v := range g.Compression {
		if v < 1 {
			return fmt.Errorf("campaign %s: grid compression ratio %v < 1", c.Name, v)
		}
	}
	for _, s := range g.Shards {
		if s < 1 {
			return fmt.Errorf("campaign %s: grid shards %d", c.Name, s)
		}
	}
	if err := c.checkLabels("bandwidth", "name nor kind", len(g.Bandwidth), func(i int) string { return g.Bandwidth[i].label() }); err != nil {
		return err
	}
	if err := c.checkLabels("trace", "file nor name (a no-trace entry needs a name)", len(g.Traces), func(i int) string { return g.Traces[i].label() }); err != nil {
		return err
	}
	return c.checkLabels("partition", "name nor kind", len(g.Partition), func(i int) string { return g.Partition[i].label() })
}

// checkLabels validates the n cell-ID labels of one named grid axis: each
// present, filename-safe and distinct. missing words the two fields an
// entry without a label lacks.
func (c *Spec) checkLabels(axis, missing string, n int, label func(i int) string) error {
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		l := label(i)
		switch {
		case l == "":
			return fmt.Errorf("campaign %s: %s entry %d has neither %s", c.Name, axis, i, missing)
		case !safeLabel(l):
			return fmt.Errorf("campaign %s: %s label %q is not filename-safe (want [A-Za-z0-9][A-Za-z0-9._-]*)", c.Name, axis, l)
		case seen[l]:
			return fmt.Errorf("campaign %s: duplicate %s label %q (give entries distinct names)", c.Name, axis, l)
		}
		seen[l] = true
	}
	return nil
}

// safeLabel reports whether a cell-ID component is filename-safe: cell IDs
// become directories under the output directory (cells/<id>/), so a label
// must not smuggle separators or dot-relative segments into them.
func safeLabel(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && (r == '.' || r == '_' || r == '-'):
		default:
			return false
		}
	}
	return s != ""
}

// Cell is one expanded grid point: a fully overridden, validated scenario
// spec plus the identifiers the manifest and aggregates key on.
type Cell struct {
	// Index is the cell's position in the deterministic run matrix.
	Index int
	// ID is the stable, filename-safe cell identifier built from the
	// swept axis values, not the matrix index: appending values to an
	// already-swept axis keeps existing IDs — and their manifest entries —
	// valid. (Sweeping a previously-unswept axis adds a new part to every
	// ID, so those cells re-run.) Under a directory base the first part is
	// the base spec's name ("saps-512_sh8", or just "saps-512" with no
	// axis); under a file base, when every swept axis collapses to the base
	// value, the ID is "base".
	ID string
	// SHA is the truncated sha256 of the cell spec's canonical form; the
	// manifest stores it so resume re-runs cells whose definition
	// changed.
	SHA string
	// Spec is the cell's scenario, derived from the campaign base.
	Spec *scenario.Spec
	// Bandwidth is the bandwidth-axis label ("" when the axis is not
	// swept).
	Bandwidth string
	// Trace is the trace-axis label ("" when the axis is not swept).
	Trace string
	// Partition is the partition-axis label ("" when the axis is not
	// swept).
	Partition string
	// Compression is the cell's compression ratio c from the grid axis or,
	// failing that, the algorithm's per_algo entry (0 when neither sets it).
	Compression float64
}

// compact renders a float for cell IDs (shortest round-trip form, "." kept —
// it is filename-safe on every platform the repo targets).
func compact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Expand crosses the grid over each base scenario (what LoadBase returned)
// into the deterministic run matrix, base by base. Every cell's scenario is
// validated; the first invalid cell aborts the expansion with an error
// naming it. The same campaign and base specs always produce the identical
// cell sequence (IDs, order, and SHAs). Under a directory base a cell ID
// starts with its base spec's name, which therefore has to be filename-safe
// and unique in the directory.
func (c *Spec) Expand(bases ...*scenario.Spec) ([]Cell, error) {
	var cells []Cell
	ids := map[string]int{}
	named := map[string]*scenario.Spec{}
	for _, base := range bases {
		prefix := ""
		if c.baseIsDir {
			prefix = base.Name
			if !safeLabel(prefix) {
				return nil, fmt.Errorf("campaign %s: %s: scenario name %q is not filename-safe (want [A-Za-z0-9][A-Za-z0-9._-]*)",
					c.Name, base.File(), prefix)
			}
			if prev, dup := named[prefix]; dup {
				return nil, fmt.Errorf("campaign %s: %s and %s are both named %q (cell IDs start with the name)",
					c.Name, prev.File(), base.File(), prefix)
			}
			named[prefix] = base
		}
		var err error
		if cells, err = c.expandBase(cells, ids, base, prefix); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// option is one value of one grid axis: the part it adds to a cell ID ("" for
// none) and its rewrite of the cell's spec and labels.
type option struct {
	part  string
	apply func(s *scenario.Spec, cell *Cell)
}

// keep is the one option of an axis the grid leaves empty or the algorithm
// does not read: the base value stays and the ID gains no part.
var keep = []option{{apply: func(*scenario.Spec, *Cell) {}}}

// axis makes one option per grid value, or keep when there are none.
func axis[T any](vals []T, part func(T) string, apply func(T, *scenario.Spec, *Cell)) []option {
	if len(vals) == 0 {
		return keep
	}
	opts := make([]option, len(vals))
	for i, v := range vals {
		opts[i] = option{part(v), func(s *scenario.Spec, cell *Cell) { apply(v, s, cell) }}
	}
	return opts
}

// setRatio lands a compression ratio on the cell; 0 keeps the base's.
func setRatio(v float64, s *scenario.Spec, cell *Cell) {
	if v > 0 {
		cell.Compression = v
		s.SetRatio(v)
	}
}

// axes returns algo's option table in nesting order: compression › nodes ›
// rounds › bandwidth › trace › partition › seed › shards. An axis collapses
// to keep where every value would yield the same cell: compression for an
// algorithm without a ratio knob, trace and shards for an asynchronous one
// (it runs unsharded over a static environment).
func (c *Spec) axes(algo string) [][]option {
	g := &c.Grid
	r := algos.Recipe{Algo: algo}
	// Unswept, the ratio is the algorithm's per_algo entry, else the base's.
	own := c.PerAlgo[algo].Compression
	ratios := []option{{apply: func(s *scenario.Spec, cell *Cell) { setRatio(own, s, cell) }}}
	if r.RatioField() != "" && len(g.Compression) > 0 {
		ratios = axis(g.Compression, func(v float64) string { return "c" + compact(v) }, setRatio)
	}
	traces, shards := keep, keep
	if !r.Async() {
		traces = axis(g.Traces, func(e GridTrace) string { return e.label() }, func(e GridTrace, s *scenario.Spec, cell *Cell) {
			cell.Trace = e.label()
			s.Trace = nil // an empty file is the static-network control cell
			if e.File != "" {
				s.Trace = &e.TraceSpec
			}
		})
		shards = axis(g.Shards, func(n int) string { return "sh" + strconv.Itoa(n) }, func(n int, s *scenario.Spec, _ *Cell) { s.Shards = n })
	}
	return [][]option{
		ratios,
		axis(g.Nodes, func(n int) string { return "n" + strconv.Itoa(n) }, func(n int, s *scenario.Spec, _ *Cell) { s.Nodes = n }),
		axis(g.Rounds, func(n int) string { return "r" + strconv.Itoa(n) }, func(n int, s *scenario.Spec, _ *Cell) { s.Rounds = n }),
		axis(g.Bandwidth, func(e GridBandwidth) string { return e.label() }, func(e GridBandwidth, s *scenario.Spec, cell *Cell) {
			cell.Bandwidth = e.label()
			s.Bandwidth = e.BandwidthSpec
		}),
		traces,
		axis(g.Partition, func(e GridPartition) string { return e.label() }, func(e GridPartition, s *scenario.Spec, cell *Cell) {
			cell.Partition = e.label()
			s.Partition = nil // kind "iid" is the uniform-split control cell
			if e.Kind != "iid" {
				s.Partition = &e.PartitionSpec
			}
		}),
		axis(g.Seeds, func(v uint64) string { return "s" + strconv.FormatUint(v, 10) }, func(v uint64, s *scenario.Spec, _ *Cell) { s.Seed = v }),
		shards,
	}
}

// expandBase appends one base scenario's cells: each algorithm's option table
// walked as a mixed-radix counter, the last axis varying fastest, every ID
// starting with prefix when there is one. ids maps the IDs taken so far to
// their cell index.
func (c *Spec) expandBase(cells []Cell, ids map[string]int, base *scenario.Spec, prefix string) ([]Cell, error) {
	names := c.Grid.Algo
	if len(names) == 0 {
		names = []string{base.Algo}
	}
	for _, algo := range names {
		axes := c.axes(algo)
		total := 1
		for _, a := range axes {
			total *= len(a)
		}
		pick := make([]option, len(axes))
		for k := 0; k < total; k++ {
			for a, rem := len(axes)-1, k; a >= 0; a-- {
				pick[a] = axes[a][rem%len(axes[a])]
				rem /= len(axes[a])
			}
			// The options read the cell's algorithm; Retarget then drops what
			// it does not read, from the base and the options alike.
			s := base.Clone()
			s.Algo = algo
			if n := c.PerAlgo[algo].LocalSteps; n > 0 {
				s.LocalSteps = n
			}
			var cell Cell
			parts := []string{prefix}
			if len(c.Grid.Algo) > 0 {
				parts = append(parts, algo)
			}
			for _, o := range pick {
				o.apply(s, &cell)
			}
			// An ID names its compression ratio last.
			for _, o := range pick[1:] {
				parts = append(parts, o.part)
			}
			parts = slices.DeleteFunc(append(parts, pick[0].part), func(p string) bool { return p == "" })
			id := strings.Join(parts, "_")
			if id == "" {
				// Every swept axis collapsed to the base value (e.g. a
				// compression-only grid over a knobless algorithm).
				id = "base"
			}
			if prev, dup := ids[id]; dup {
				return nil, fmt.Errorf("campaign %s: cells %d and %d share id %q (duplicate axis values?)",
					c.Name, prev, len(cells), id)
			}
			ids[id] = len(cells)
			s = s.Retarget(algo)
			s.Name = id
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("campaign %s: cell %s: %w", c.Name, id, err)
			}
			canon, err := s.Canonical()
			if err != nil {
				return nil, fmt.Errorf("campaign %s: cell %s: %w", c.Name, id, err)
			}
			sum := sha256.Sum256(canon)
			cell.Index, cell.ID, cell.SHA, cell.Spec = len(cells), id, hex.EncodeToString(sum[:8]), s
			cells = append(cells, cell)
		}
	}
	return cells, nil
}
