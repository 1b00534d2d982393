package transport

import (
	"fmt"
	"net"
	"time"

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

// Probe is the measurement payload exchanged between two workers.
type Probe struct {
	From    int
	Payload []byte
}

// measurePeers runs the probe exchanges for one worker: first it echoes the
// probes of all lower ranks (any arrival order; the accept loop hands them
// over), then dials all higher ranks in ascending order. This ordering is
// deadlock-free: rank 0 starts dialing immediately, and every awaited probe
// has a matching dial in flight.
func (w *WorkerClient) measurePeers(req MeasureRequest) MeasureReport {
	rep := MeasureReport{Rank: w.rank, MBps: make([]float64, w.n)}
	payload := make([]byte, req.ProbeBytes)
	for k := 0; k < w.rank; k++ {
		from, mbps, err := w.acceptProbe(payload)
		if err != nil {
			w.logf("worker %d: accept probe: %v", w.rank, err)
			continue
		}
		rep.MBps[from] = mbps
	}
	for peer := w.rank + 1; peer < w.n; peer++ {
		mbps, err := w.dialProbe(peer, payload)
		if err != nil {
			w.logf("worker %d: probe to %d failed: %v", w.rank, peer, err)
			continue
		}
		rep.MBps[peer] = mbps
	}
	return rep
}

// dialProbe connects to a higher-ranked peer, sends the probe, and times the
// echoed response: MB/s over the round trip of 2×ProbeBytes.
func (w *WorkerClient) dialProbe(peer int, payload []byte) (float64, error) {
	nc, err := net.Dial("tcp", w.addrs[peer])
	if err != nil {
		return 0, err
	}
	conn := NewConn(nc)
	defer conn.Close()
	start := time.Now()
	if err := conn.Send(Probe{From: w.rank, Payload: payload}); err != nil {
		return 0, err
	}
	msg, err := conn.Recv()
	if err != nil {
		return 0, err
	}
	p, ok := msg.(Probe)
	if !ok {
		return 0, fmt.Errorf("transport: probe reply was %T", msg)
	}
	return throughputMBps(len(payload)+len(p.Payload), time.Since(start)), nil
}

// acceptProbe takes one incoming probe from the accept loop, echoes it, and
// attributes the measurement to the dialer identified inside the probe.
func (w *WorkerClient) acceptProbe(payload []byte) (from int, mbps float64, err error) {
	pc, ok := <-w.probes
	if !ok {
		return 0, 0, fmt.Errorf("transport: peer listener closed")
	}
	defer pc.conn.Close()
	p := pc.probe
	if p.From < 0 || p.From >= w.n {
		return 0, 0, fmt.Errorf("transport: probe from invalid rank %d", p.From)
	}
	if err := pc.conn.Send(Probe{From: w.rank, Payload: payload}); err != nil {
		return 0, 0, err
	}
	return p.From, throughputMBps(len(p.Payload)+len(payload), time.Since(pc.start)), nil
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
// symmetrization.
func AssembleBandwidth(n int, reports []MeasureReport) (*netsim.Bandwidth, error) {
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
			case a == 0:
				raw[i][j] = b
			case b == 0:
				raw[j][i] = a
			}
		}
	}
	return netsim.NewBandwidth(raw), nil
}
