// Package trace records per-round events of a decentralized training run —
// who was matched with whom, over which bandwidth, how many bytes moved,
// whether the round was a forced reconnection — and renders them as CSV for
// offline analysis. The experiment drivers attach a Recorder to SAPS runs
// when round-level introspection is wanted; it costs one append per round.
//
// A Recorder has two modes. The default accumulates every round in memory
// and renders the CSV at the end (WriteCSV). Stream switches it to
// incremental output: the header is written immediately and every Record
// appends one row to the writer, so a 50k-node planner_only run over tens
// of thousands of rounds holds one round of scratch instead of the whole
// history. Both modes produce byte-identical CSV for the same rounds.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"sapspsgd/internal/graph"
	"sapspsgd/internal/netsim"
)

// RoundEvent is one round's record.
type RoundEvent struct {
	Round int
	// Pairs are the matched worker pairs (u < v).
	Pairs [][2]int
	// PairMBps holds the link bandwidth of each pair, aligned with Pairs.
	PairMBps []float64
	// Forced reports whether Algorithm 3 injected connectivity-restoring
	// edges this round.
	Forced bool
	// PayloadBytes is the per-direction payload size of each exchange.
	PayloadBytes int64
	// ActiveWorkers counts participants (== n without churn).
	ActiveWorkers int
	// Loss is the mean training loss reported for the round.
	Loss float64
}

// MeanPairMBps is the mean link bandwidth over the round's matched pairs
// (0 when nothing matched) — one point of the Fig. 5 series.
func (ev *RoundEvent) MeanPairMBps() float64 {
	if len(ev.PairMBps) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range ev.PairMBps {
		s += v
	}
	return s / float64(len(ev.PairMBps))
}

// Recorder accumulates round events (default), or streams them row by row
// after Stream.
type Recorder struct {
	events []RoundEvent
	// means is every round's mean pair bandwidth — Fig. 5's series — kept
	// in both modes (8 bytes a round), so the summary statistics
	// (RoundMeans, MeanMatchedBandwidth, Len) outlive the event history a
	// streaming recorder does not hold.
	means []float64

	// Streaming state: w non-nil selects streaming mode.
	w       io.Writer
	err     error
	scratch RoundEvent
}

// NewRecorder returns an empty in-memory recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Stream switches the recorder to streaming mode: the CSV header is written
// to w immediately and every subsequent Record appends one row instead of
// accumulating the event. Must be called before the first Record; write
// failures latch into Err (later Records become no-ops). The recorder
// cannot be switched back.
func (r *Recorder) Stream(w io.Writer) error {
	if r.w != nil {
		return fmt.Errorf("trace: recorder already streaming")
	}
	if len(r.events) > 0 {
		return fmt.Errorf("trace: Stream after %d recorded rounds", len(r.events))
	}
	r.w = w
	if err := writeHeader(w); err != nil {
		r.err = err
		return err
	}
	return nil
}

// Err returns the first write error of a streaming recorder (nil in
// in-memory mode or while the stream is healthy).
func (r *Recorder) Err() error { return r.err }

// Record appends one round's event, deriving pair statistics from the
// matching and the environment. In streaming mode the row goes straight to
// the writer and only the round's mean pair bandwidth is retained.
func (r *Recorder) Record(round int, match graph.Matching, bw *netsim.Bandwidth, forced bool, payloadBytes int64, active int, loss float64) {
	ev := &r.scratch
	if r.w == nil {
		r.events = append(r.events, RoundEvent{})
		ev = &r.events[len(r.events)-1]
	}
	ev.Round = round
	ev.Forced = forced
	ev.PayloadBytes = payloadBytes
	ev.ActiveWorkers = active
	ev.Loss = loss
	ev.Pairs = ev.Pairs[:0]
	ev.PairMBps = ev.PairMBps[:0]
	for v, p := range match {
		if p > v {
			ev.Pairs = append(ev.Pairs, [2]int{v, p})
			ev.PairMBps = append(ev.PairMBps, bw.MBps(v, p))
		}
	}
	r.means = append(r.means, ev.MeanPairMBps())
	if r.w != nil && r.err == nil {
		r.err = writeEvent(r.w, ev)
	}
}

// Events returns the recorded rounds (nil in streaming mode).
func (r *Recorder) Events() []RoundEvent { return r.events }

// Len returns the number of recorded rounds (both modes).
func (r *Recorder) Len() int { return len(r.means) }

// RoundMeans returns every recorded round's mean pair bandwidth (0 for a
// round that matched nothing), in round order — the Fig. 5 series (both
// modes).
func (r *Recorder) RoundMeans() []float64 { return r.means }

// MeanMatchedBandwidth returns the across-round mean of the per-round mean
// pair bandwidth over the rounds that matched something — the Fig. 5
// summary statistic.
func (r *Recorder) MeanMatchedBandwidth() float64 {
	sum, n := 0.0, 0
	for _, m := range r.means {
		if m > 0 {
			sum += m
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// writeHeader emits the CSV column header.
func writeHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, "round,pairs,mean_pair_mbps,forced,payload_bytes,active,loss")
	return err
}

// writeEvent renders one round's row: round, pairs (u-v|u-v|…), mean pair
// bandwidth, forced, payload bytes, active workers, loss.
func writeEvent(w io.Writer, ev *RoundEvent) error {
	pairs := make([]string, len(ev.Pairs))
	for i, p := range ev.Pairs {
		pairs[i] = strconv.Itoa(p[0]) + "-" + strconv.Itoa(p[1])
	}
	_, err := fmt.Fprintf(w, "%d,%s,%.4f,%t,%d,%d,%.6f\n",
		ev.Round, strings.Join(pairs, "|"), ev.MeanPairMBps(), ev.Forced,
		ev.PayloadBytes, ev.ActiveWorkers, ev.Loss)
	return err
}

// WriteCSV renders the in-memory history, one row per round. Streaming
// recorders have already emitted their rows and return an error.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if r.w != nil {
		return fmt.Errorf("trace: WriteCSV on a streaming recorder (rows already written)")
	}
	if err := writeHeader(w); err != nil {
		return err
	}
	for i := range r.events {
		if err := writeEvent(w, &r.events[i]); err != nil {
			return err
		}
	}
	return nil
}
