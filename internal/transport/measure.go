package transport

import (
	"fmt"
	"math"
	"time"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
)

// Bandwidth measurement phase (paper §II-C footnote 3: "the communication
// speed information is measured by each pair of peers and regularly reported
// to the coordinator"). Before training starts the coordinator can ask every
// worker to probe its peers with fixed-size payloads and report the achieved
// throughput; the assembled matrix feeds Algorithm 3's adaptive matching.

// MeasureRequest asks a worker to time its links to its peers. Every pair
// is measured once, by its lower rank: it sends the higher rank a probe of
// ProbeBytes, the higher rank echoes it, and the round trip is timed.
type MeasureRequest struct {
	ProbeBytes int
}

// MeasureReport carries the measured throughput to the coordinator.
// MBps[j] is the speed this rank timed to peer j: nonzero only for higher
// ranks (the pairs it measured), and 0 there where the probe failed.
type MeasureReport struct {
	Rank int
	MBps []float64
}

// measurePeers runs one worker's side of the probe exchanges over the data
// plane: a probe and its echo are each one frame of kind FrameProbe,
// ⌈ProbeBytes/8⌉ words on the cached peer connections, filed in the inbox by
// the readers and claimed with Recv. First it opens its connection to every
// peer, so no dial falls inside a timed window and training reuses them.
// Then it echoes each lower rank's probe and probes each higher rank, both
// in ascending order, timing the send until it claims the echo: MB/s over
// 2×ProbeBytes. Every worker takes its pairs in the same global order, so
// the exchanges cannot deadlock, and every probe is claimed, so round 0
// still pairs frames by seq.
func (w *WorkerClient) measurePeers(req MeasureRequest) MeasureReport {
	rep := MeasureReport{Rank: w.rank, MBps: make([]float64, w.n)}
	for peer := range w.n {
		if peer != w.rank {
			w.out.conn(peer, w.addrs[peer]) // a failed dial is retried, and logged, by the send below
		}
	}
	probe := make([]float64, (req.ProbeBytes+7)/8)
	d := peerDialer{w}
	for peer := 0; peer < w.rank; peer++ {
		_, err := d.Recv(0, w.rank, peer)
		if err == nil {
			err = w.send(engine.FrameProbe, 0, peer, probe)
		}
		if err != nil {
			w.logf("worker %d: echo probe of %d: %v", w.rank, peer, err)
		}
	}
	for peer := w.rank + 1; peer < w.n; peer++ {
		start := time.Now()
		err := w.send(engine.FrameProbe, 0, peer, probe)
		if err == nil {
			_, err = d.Recv(0, w.rank, peer)
		}
		if err != nil {
			w.logf("worker %d: probe to %d failed: %v", w.rank, peer, err)
			continue
		}
		rep.MBps[peer] = throughputMBps(2*req.ProbeBytes, time.Since(start))
	}
	return rep
}

func throughputMBps(totalBytes int, elapsed time.Duration) float64 {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	return float64(totalBytes) / secs / 1e6
}

// AssembleBandwidth merges per-worker measurement reports into a symmetric
// netsim.Bandwidth. A worker measures each pair once, from its lower rank,
// and reports 0 for the rest, so a one-sided entry is mirrored to the other
// side; a pair reported from both ends keeps the smaller figure. A pair
// nobody measured (its probe failed) takes its speed from fallback, the
// configured environment: left at 0 it would be no link at all, and the
// first ring or hub exchange routed over it would have nothing to charge. It
// is an error when fallback is nil or has no such link either, and when a
// report holds a negative, NaN or infinite speed.
func AssembleBandwidth(n int, reports []MeasureReport, fallback *netsim.Bandwidth) (*netsim.Bandwidth, error) {
	raw := make([][]float64, n)
	for i := range raw {
		raw[i] = make([]float64, n)
	}
	seen := make([]bool, n)
	for _, r := range reports {
		if r.Rank < 0 || r.Rank >= n || len(r.MBps) != n {
			return nil, fmt.Errorf("transport: malformed report from rank %d", r.Rank)
		}
		if seen[r.Rank] {
			return nil, fmt.Errorf("transport: duplicate report from rank %d", r.Rank)
		}
		seen[r.Rank] = true
		for peer, v := range r.MBps {
			// A NaN would read as no link after the min below, and +Inf
			// as a link that costs nothing.
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("transport: rank %d reported %v MB/s to peer %d", r.Rank, v, peer)
			}
		}
		copy(raw[r.Rank], r.MBps)
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("transport: missing report from rank %d", i)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := raw[i][j], raw[j][i]
			switch {
			case a == 0 && b == 0:
				if fallback == nil || fallback.N != n || fallback.MBps(i, j) <= 0 {
					return nil, fmt.Errorf("transport: no probe between ranks %d and %d succeeded and the configured environment has no such link to fall back on", i, j)
				}
				raw[i][j] = fallback.MBps(i, j)
				raw[j][i] = raw[i][j]
			case a == 0:
				raw[i][j] = b
			case b == 0:
				raw[j][i] = a
			}
		}
	}
	return netsim.NewBandwidth(raw), nil
}
