package transport

import (
	"fmt"
	"math"
	"net"
	"time"

	"sapspsgd/internal/engine"
	"sapspsgd/internal/netsim"
)

// Bandwidth measurement phase (paper §II-C footnote 3: "the communication
// speed information is measured by each pair of peers and regularly reported
// to the coordinator"). Before training starts the coordinator can ask every
// worker to probe its peers with fixed-size payloads and report the achieved
// throughput; the assembled matrix feeds Algorithm 3's adaptive matching.

// MeasureRequest asks a worker to probe every other worker, exchanging
// ProbeBytes of payload per direction. Lower ranks dial higher ranks; the
// accepting side attributes the measurement to the rank carried inside the
// probe, so arrival order does not matter.
type MeasureRequest struct {
	ProbeBytes int
}

// MeasureReport carries the measured throughput to the coordinator.
// MBps[j] is the measured speed to peer j (0 where the probe failed).
type MeasureReport struct {
	Rank int
	MBps []float64
}

// measurePeers runs the probe exchanges for one worker: first it echoes the
// probes of all lower ranks (any arrival order; the accept loop hands them
// over), then dials all higher ranks in ascending order. This ordering is
// deadlock-free: rank 0 starts dialing immediately, and every awaited probe
// has a matching dial in flight. A probe is one frame of kind FrameProbe:
// the sender's rank in the header, ProbeBytes of filler as the body.
func (w *WorkerClient) measurePeers(req MeasureRequest) MeasureReport {
	rep := MeasureReport{Rank: w.rank, MBps: make([]float64, w.n)}
	probe := append(engine.BeginFrame(nil), make([]byte, req.ProbeBytes)...)
	engine.SealFrame(probe, engine.FrameHeader{Kind: engine.FrameProbe, From: w.rank})
	for k := 0; k < w.rank; k++ {
		from, mbps, err := w.acceptProbe(probe)
		if err != nil {
			w.logf("worker %d: accept probe: %v", w.rank, err)
			continue
		}
		rep.MBps[from] = mbps
	}
	for peer := w.rank + 1; peer < w.n; peer++ {
		mbps, err := w.dialProbe(peer, probe)
		if err != nil {
			w.logf("worker %d: probe to %d failed: %v", w.rank, peer, err)
			continue
		}
		rep.MBps[peer] = mbps
	}
	return rep
}

// dialProbe connects to a higher-ranked peer, sends the probe frame, and
// times the echoed response: MB/s over the round trip of 2×ProbeBytes.
func (w *WorkerClient) dialProbe(peer int, probe []byte) (float64, error) {
	nc, err := net.Dial("tcp", w.addrs[peer])
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	start := time.Now()
	if _, err := nc.Write(probe); err != nil {
		return 0, err
	}
	h, echo, err := engine.ReadFrame(nc, nil, w.maxBody)
	if err != nil {
		return 0, err
	}
	if h.Kind != engine.FrameProbe {
		return 0, fmt.Errorf("transport: probe reply was a frame of kind %d", h.Kind)
	}
	return throughputMBps(len(probe)-engine.FrameHeaderLen+len(echo), time.Since(start)), nil
}

// acceptProbe takes one incoming probe from the accept loop, echoes it, and
// attributes the measurement to the dialer named in the probe's header.
func (w *WorkerClient) acceptProbe(probe []byte) (from int, mbps float64, err error) {
	pc, ok := <-w.probes
	if !ok {
		return 0, 0, fmt.Errorf("transport: peer listener closed")
	}
	defer pc.conn.Close()
	if _, err := pc.conn.Write(probe); err != nil {
		return 0, 0, err
	}
	return pc.from, throughputMBps(pc.size+len(probe)-engine.FrameHeaderLen, time.Since(pc.start)), nil
}

func throughputMBps(totalBytes int, elapsed time.Duration) float64 {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	return float64(totalBytes) / secs / 1e6
}

// AssembleBandwidth merges per-worker measurement reports into a symmetric
// netsim.Bandwidth (min of the two directions, as in the paper). One-sided
// measurements (the reverse probe failed) are mirrored before
// symmetrization. A pair whose probes failed both ways takes its speed from
// fallback, the configured environment: left at 0 it would be no link at all,
// and the first ring or hub exchange routed over it would have nothing to
// charge. It is an error when fallback is nil or has no such link either,
// and when a report holds a negative, NaN or infinite speed.
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
					return nil, fmt.Errorf("transport: both probes between ranks %d and %d failed and the configured environment has no such link to fall back on", i, j)
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
