// Package fleettrace replays committed per-node CSV series — per-round
// bandwidth multipliers and join/leave events — as a deterministic fleet
// environment. A trace file is the measured counterpart of the synthetic
// jitter/churn generators: the scenario layer parses it once, wraps it in a
// Replay, and queries the replay as a pure function of the round index, so
// the sim, sharded, and TCP backends observe bit-identical environments.
//
// The CSV schema is:
//
//	round,node,bw,event
//	0,3,0.25,
//	5,3,,leave
//	9,3,1.0,join
//
// round and node are non-negative integers; bw is an optional positive
// finite multiplier applied to every link touching the node; event is an
// optional "leave" or "join". A row must carry at least one of bw/event.
// Rows for one node must appear in strictly increasing round order, events
// must alternate (a node starts active, so its first event must be "leave"),
// and lines starting with '#' are comments. Every violation is a validation
// error with the offending line number — Parse never panics on hostile
// input (the fuzz test pins this).
package fleettrace

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Header is the mandatory first non-comment line of a trace file.
const Header = "round,node,bw,event"

// Interp selects how bandwidth multipliers are evaluated between samples.
type Interp int

const (
	// InterpHold holds each sample's value until the next sample (and holds
	// the first sample's value backwards before it) — the default.
	InterpHold Interp = iota
	// InterpLinear linearly interpolates between consecutive samples and
	// holds flat outside the sampled range.
	InterpLinear
)

// ParseInterp maps the scenario-level interpolation name to an Interp.
// The empty string means hold.
func ParseInterp(name string) (Interp, error) {
	switch name {
	case "", "hold":
		return InterpHold, nil
	case "linear":
		return InterpLinear, nil
	}
	return 0, fmt.Errorf("fleettrace: unknown interpolation %q (want hold or linear)", name)
}

// bwPoint is one bandwidth sample of a node's series.
type bwPoint struct {
	round int
	mult  float64
}

// evPoint is one membership event of a node's series.
type evPoint struct {
	round int
	leave bool
}

// nodeSeries is one traced node's bandwidth-multiplier and membership-event
// series.
type nodeSeries struct {
	node   int
	bw     []bwPoint
	events []evPoint
}

// Trace is a parsed, validated trace: the series of every node it names.
type Trace struct {
	// MaxNode is the largest node id the trace references.
	MaxNode int
	// MaxRound is the largest round any row references.
	MaxRound    int
	maxNodeLine int          // the first line naming MaxNode
	series      []nodeSeries // by ascending node id
}

// Parse decodes and validates a trace from its CSV bytes. Its storage grows
// with the rows, never with a node id: NewReplay checks the ids against the
// fleet.
func Parse(data []byte) (*Trace, error) {
	lines := strings.Split(string(data), "\n")
	sawHeader := false
	type nodeState struct {
		nodeSeries
		lastRound int
		absent    bool
	}
	states := map[int]*nodeState{}
	tr := &Trace{}
	rows := 0
	for ln, raw := range lines {
		line := strings.TrimRight(raw, "\r")
		if strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		if !sawHeader {
			if strings.TrimSpace(line) != Header {
				return nil, fmt.Errorf("fleettrace: line %d: header %q, want %q", ln+1, line, Header)
			}
			sawHeader = true
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("fleettrace: line %d: %d fields, want 4 (%s)", ln+1, len(fields), Header)
		}
		round, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil || round < 0 {
			return nil, fmt.Errorf("fleettrace: line %d: round %q is not a non-negative integer", ln+1, fields[0])
		}
		node, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil || node < 0 {
			return nil, fmt.Errorf("fleettrace: line %d: node %q is not a non-negative integer", ln+1, fields[1])
		}
		bwField := strings.TrimSpace(fields[2])
		evField := strings.TrimSpace(fields[3])
		if bwField == "" && evField == "" {
			return nil, fmt.Errorf("fleettrace: line %d: row carries neither a bw multiplier nor an event", ln+1)
		}
		st := states[node]
		if st == nil {
			st = &nodeState{nodeSeries: nodeSeries{node: node}}
			states[node] = st
		} else if round <= st.lastRound {
			return nil, fmt.Errorf("fleettrace: line %d: node %d round %d out of order (previous row was round %d)",
				ln+1, node, round, st.lastRound)
		}
		st.lastRound = round
		if bwField != "" {
			mult, err := strconv.ParseFloat(bwField, 64)
			if err != nil {
				return nil, fmt.Errorf("fleettrace: line %d: bw %q is not a number", ln+1, bwField)
			}
			if math.IsNaN(mult) || math.IsInf(mult, 0) || mult <= 0 {
				return nil, fmt.Errorf("fleettrace: line %d: bw multiplier %v must be positive and finite", ln+1, mult)
			}
			st.bw = append(st.bw, bwPoint{round: round, mult: mult})
		}
		if evField != "" {
			switch evField {
			case "leave":
				if st.absent {
					return nil, fmt.Errorf("fleettrace: line %d: node %d leaves at round %d but is already absent", ln+1, node, round)
				}
				st.absent = true
			case "join":
				if !st.absent {
					return nil, fmt.Errorf("fleettrace: line %d: node %d joins at round %d but never left", ln+1, node, round)
				}
				st.absent = false
			default:
				return nil, fmt.Errorf("fleettrace: line %d: unknown event %q (want leave or join)", ln+1, evField)
			}
			st.events = append(st.events, evPoint{round: round, leave: evField == "leave"})
		}
		if rows == 0 || node > tr.MaxNode {
			tr.MaxNode, tr.maxNodeLine = node, ln+1
		}
		if round > tr.MaxRound {
			tr.MaxRound = round
		}
		rows++
	}
	if !sawHeader {
		return nil, fmt.Errorf("fleettrace: empty trace (missing %q header)", Header)
	}
	if rows == 0 {
		return nil, fmt.Errorf("fleettrace: trace has a header but no data rows")
	}
	for _, st := range states {
		tr.series = append(tr.series, st.nodeSeries)
	}
	slices.SortFunc(tr.series, func(a, b nodeSeries) int { return cmp.Compare(a.node, b.node) })
	return tr, nil
}

// ParseFile reads and parses one trace file.
func ParseFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// Replay evaluates a trace against a concrete fleet: Multipliers and Active
// are pure functions of the round index, so every backend (and every shard
// count) querying the same replay observes the same environment. Nodes the
// trace never mentions keep multiplier 1 and stay active.
type Replay struct {
	trace  *Trace
	interp Interp
	n      int
}

// NewReplay binds a trace to a fleet of n nodes. It fails if the trace
// references a node outside the fleet or if its events ever leave fewer than
// two nodes active (SAPS needs a pair to gossip).
func NewReplay(tr *Trace, n int, interp Interp) (*Replay, error) {
	if tr.MaxNode >= n {
		return nil, fmt.Errorf("fleettrace: line %d: trace references node %d but the fleet has only %d nodes", tr.maxNodeLine, tr.MaxNode, n)
	}
	// Membership only changes at event rounds: walk them in (round, node)
	// order and check the active count after each round's batch.
	type change struct{ round, node, delta int }
	var changes []change
	for _, s := range tr.series {
		for _, e := range s.events {
			d := 1
			if e.leave {
				d = -1
			}
			changes = append(changes, change{round: e.round, node: s.node, delta: d})
		}
	}
	sort.Slice(changes, func(a, b int) bool {
		if changes[a].round != changes[b].round {
			return changes[a].round < changes[b].round
		}
		return changes[a].node < changes[b].node
	})
	active := n
	for i, c := range changes {
		active += c.delta
		if i+1 < len(changes) && changes[i+1].round == c.round {
			continue
		}
		if active < 2 {
			return nil, fmt.Errorf("fleettrace: trace leaves %d of %d nodes active at round %d (need at least 2)", active, n, c.round)
		}
	}
	return &Replay{trace: tr, interp: interp, n: n}, nil
}

// N returns the fleet size the replay covers.
func (rp *Replay) N() int { return rp.n }

// Multipliers writes the fleet's per-node bandwidth multipliers at round t
// into dst (reallocated unless it has length N) and returns it.
func (rp *Replay) Multipliers(t int, dst []float64) []float64 {
	if len(dst) != rp.n {
		dst = make([]float64, rp.n)
	}
	for i := range dst {
		dst[i] = 1
	}
	for _, s := range rp.trace.series {
		if len(s.bw) > 0 {
			dst[s.node] = sampleAt(s.bw, t, rp.interp)
		}
	}
	return dst
}

// Active writes the fleet's membership at round t into dst (reallocated
// unless it has length N) and returns it. An event at round r takes effect
// at round r.
func (rp *Replay) Active(t int, dst []bool) []bool {
	if len(dst) != rp.n {
		dst = make([]bool, rp.n)
	}
	for i := range dst {
		dst[i] = true
	}
	for _, s := range rp.trace.series {
		// Last event with round <= t decides; none means the initial state.
		evs := s.events
		k := sort.Search(len(evs), func(i int) bool { return evs[i].round > t })
		if k > 0 {
			dst[s.node] = !evs[k-1].leave
		}
	}
	return dst
}

// sampleAt evaluates one node's multiplier series at round t.
func sampleAt(pts []bwPoint, t int, interp Interp) float64 {
	// k is the first sample strictly after t.
	k := sort.Search(len(pts), func(i int) bool { return pts[i].round > t })
	if k == 0 {
		// Before the first sample: hold it backwards under both modes.
		return pts[0].mult
	}
	prev := pts[k-1]
	if interp == InterpHold || k == len(pts) || prev.round == t {
		return prev.mult
	}
	next := pts[k]
	frac := float64(t-prev.round) / float64(next.round-prev.round)
	v := prev.mult + float64((next.mult-prev.mult)*frac)
	// The exact interpolant lies between the samples; clamp the floating-
	// point one there too, so extreme sample values can never cancel to a
	// non-positive multiplier.
	lo, hi := prev.mult, next.mult
	if lo > hi {
		lo, hi = hi, lo
	}
	if v < lo {
		v = lo
	} else if v > hi {
		v = hi
	}
	return v
}
