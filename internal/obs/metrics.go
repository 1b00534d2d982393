package obs

import "sync/atomic"

// Prefix is prepended to every metric in the catalog, namespacing the
// exposition for multi-process scrapes.
const Prefix = "sapspsgd_"

// secondsBuckets spans the latencies the runtime actually produces:
// sub-microsecond codec calls up through multi-second fused rounds.
var secondsBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100,
}

// EngineMetrics is the engine-layer slice of the catalog. It is a value
// struct of nil-safe metric pointers: the zero value is a fully working
// disabled sink, so instrumented code captures it once and calls methods
// unconditionally.
type EngineMetrics struct {
	// RoundsTotal counts completed communication rounds across all runs.
	RoundsTotal *Counter
	// RoundSeconds observes wall-clock seconds per driver round.
	RoundSeconds *Histogram
	// PhaseSeconds observes wall-clock seconds per fused phase run in
	// the sharded runtime.
	PhaseSeconds *Histogram
	// RendezvousWaitSeconds observes how long Exchange blocked waiting
	// for the peer's deposit in the in-memory hub.
	RendezvousWaitSeconds *Histogram
	// CodecEncodeSeconds observes per-call codec encode latency.
	CodecEncodeSeconds *Histogram
	// CodecDecodeSeconds observes per-call codec decode latency.
	CodecDecodeSeconds *Histogram
	// WireBytesTotal counts fleet traffic in the repo's endpoint
	// convention — every payload at both its sender and its receiver —
	// so the scrape agrees with Result.TotalBytes and a campaign's
	// total_bytes.
	WireBytesTotal *Counter
	// SimSecondsTotal accumulates simulated communication seconds.
	SimSecondsTotal *FloatCounter
}

// Enabled reports whether this bundle carries live metrics. Timing
// instrumentation guards time.Now calls behind it so a disabled run
// never touches the clock.
func (e EngineMetrics) Enabled() bool { return e.RoundsTotal != nil }

// TransportMetrics is the TCP-fleet slice of the catalog (zero value =
// disabled sink).
type TransportMetrics struct {
	// ConnectsTotal counts accepted worker connections (registrations
	// and rejoin handshakes).
	ConnectsTotal *Counter
	// AbortsTotal counts round aborts triggered by worker loss.
	AbortsTotal *Counter
	// RejoinsTotal counts re-admitted workers.
	RejoinsTotal *Counter
	// CrashInjectionsTotal counts scheduled crash messages sent to
	// workers by the fault injector.
	CrashInjectionsTotal *Counter
	// SnapshotWritesTotal counts worker state snapshots persisted to disk.
	SnapshotWritesTotal *Counter
	// FramesRejectedTotal counts inbound peer frames a worker refused: short
	// read, wrong magic or version, oversized length, checksum mismatch.
	FramesRejectedTotal *Counter
}

// NetsimMetrics is the virtual-time simulator slice of the catalog
// (zero value = disabled sink).
type NetsimMetrics struct {
	// VirtualSeconds gauges the simulator's virtual clock (the ledger's
	// at each round's end, the async driver's at each event).
	VirtualSeconds *FloatGauge
	// EventQueueDepth gauges the async driver's pending-event count.
	EventQueueDepth *Gauge
	// EventsTotal counts the events the async driver processed.
	EventsTotal *Counter
}

// CampaignMetrics is the campaign-runner slice of the catalog (zero
// value = disabled sink).
type CampaignMetrics struct {
	// CellsPlanned gauges the total cells in the expanded grid.
	CellsPlanned *Gauge
	// CellsRunning gauges cells currently executing.
	CellsRunning *Gauge
	// CellsDoneTotal counts cells completed this process.
	CellsDoneTotal *Counter
	// CellsResumedTotal counts cells skipped because the journal already
	// had their artifacts.
	CellsResumedTotal *Counter
	// CellsFailedTotal counts cells that returned an error.
	CellsFailedTotal *Counter
}

// PlannerMetrics is the Algorithm-3 planner slice of the catalog (zero
// value = disabled sink): what one gossip.Generator round cost and what
// it produced.
type PlannerMetrics struct {
	// PlanSeconds observes wall-clock seconds per planning round.
	PlanSeconds *Histogram
	// GreedySecondsTotal accumulates seconds spent in the greedy
	// bandwidth-preferring seed matching.
	GreedySecondsTotal *FloatCounter
	// AugmentSecondsTotal accumulates seconds spent completing the seed
	// to maximum cardinality (blossom augmentation).
	AugmentSecondsTotal *FloatCounter
	// FreeAfterGreedy gauges the active vertices the last round's greedy
	// seed left unmatched — the number of blossom searches it had to run.
	FreeAfterGreedy *Gauge
	// MatchedPairs gauges the pairs in the last round's matching.
	MatchedPairs *Gauge
	// ForcedRoundsTotal counts rounds that had to inject
	// connectivity-restoring edges.
	ForcedRoundsTotal *Counter
}

// Enabled reports whether this bundle carries live metrics; the planner
// guards its time.Now calls behind it.
func (p PlannerMetrics) Enabled() bool { return p.PlanSeconds != nil }

// Metrics bundles the full catalog plus the registry that exposes it
// and the run tracker behind /runs. A single New() carries every
// subsystem's families, so any binary's /metrics includes engine,
// transport, netsim, campaign and planner metrics regardless of which
// layers the process exercises.
type Metrics struct {
	// Registry renders the catalog (plus RunsActive) as Prometheus text
	// or JSON.
	Registry *Registry
	// Runs tracks live and recently finished runs for /runs.
	Runs *RunTracker
	// Engine holds the engine-layer metrics.
	Engine EngineMetrics
	// Transport holds the TCP-fleet metrics.
	Transport TransportMetrics
	// Netsim holds the simulator metrics.
	Netsim NetsimMetrics
	// Campaign holds the campaign-runner metrics.
	Campaign CampaignMetrics
	// Planner holds the Algorithm-3 planner metrics.
	Planner PlannerMetrics
}

// New builds a Metrics bundle with the full catalog registered in a
// fresh registry.
func New() *Metrics {
	m := &Metrics{Registry: NewRegistry(), Runs: NewRunTracker()}
	m.Engine = EngineMetrics{
		RoundsTotal:           NewCounter(Prefix+"engine_rounds_total", "Communication rounds completed."),
		RoundSeconds:          NewHistogram(Prefix+"engine_round_seconds", "Wall-clock seconds per driver round.", secondsBuckets...),
		PhaseSeconds:          NewHistogram(Prefix+"engine_phase_seconds", "Wall-clock seconds per fused phase run (sharded runtime).", secondsBuckets...),
		RendezvousWaitSeconds: NewHistogram(Prefix+"engine_rendezvous_wait_seconds", "Seconds Exchange blocked waiting for the peer deposit.", secondsBuckets...),
		CodecEncodeSeconds:    NewHistogram(Prefix+"engine_codec_encode_seconds", "Codec encode latency per call.", secondsBuckets...),
		CodecDecodeSeconds:    NewHistogram(Prefix+"engine_codec_decode_seconds", "Codec decode latency per call.", secondsBuckets...),
		WireBytesTotal:        NewCounter(Prefix+"engine_wire_bytes_total", "Fleet traffic bytes (each payload counted at sender and receiver)."),
		SimSecondsTotal:       NewFloatCounter(Prefix+"engine_sim_seconds_total", "Simulated communication seconds accumulated by the ledger."),
	}
	m.Transport = TransportMetrics{
		ConnectsTotal:        NewCounter(Prefix+"transport_connects_total", "Accepted worker connections (registration + rejoin)."),
		AbortsTotal:          NewCounter(Prefix+"transport_aborts_total", "Rounds aborted after losing a worker."),
		RejoinsTotal:         NewCounter(Prefix+"transport_rejoins_total", "Workers re-admitted through the rejoin handshake."),
		CrashInjectionsTotal: NewCounter(Prefix+"transport_crash_injections_total", "Scheduled crash messages sent by the fault injector."),
		SnapshotWritesTotal:  NewCounter(Prefix+"transport_snapshot_writes_total", "Worker state snapshots written to disk."),
		FramesRejectedTotal:  NewCounter(Prefix+"transport_frames_rejected_total", "Inbound peer frames refused before reaching the inbox."),
	}
	m.Netsim = NetsimMetrics{
		VirtualSeconds:  NewFloatGauge(Prefix+"netsim_virtual_seconds", "Virtual clock of the network simulator."),
		EventQueueDepth: NewGauge(Prefix+"netsim_event_queue_depth", "Pending events in the async driver's queue."),
		EventsTotal:     NewCounter(Prefix+"netsim_events_total", "Events the async driver processed."),
	}
	m.Campaign = CampaignMetrics{
		CellsPlanned:      NewGauge(Prefix+"campaign_cells_planned", "Cells in the expanded campaign grid."),
		CellsRunning:      NewGauge(Prefix+"campaign_cells_running", "Campaign cells currently executing."),
		CellsDoneTotal:    NewCounter(Prefix+"campaign_cells_done_total", "Campaign cells completed."),
		CellsResumedTotal: NewCounter(Prefix+"campaign_cells_resumed_total", "Campaign cells skipped by journal resume."),
		CellsFailedTotal:  NewCounter(Prefix+"campaign_cells_failed_total", "Campaign cells that failed."),
	}
	m.Planner = PlannerMetrics{
		PlanSeconds:         NewHistogram(Prefix+"planner_plan_seconds", "Wall-clock seconds per Algorithm-3 planning round.", secondsBuckets...),
		GreedySecondsTotal:  NewFloatCounter(Prefix+"planner_greedy_seconds_total", "Seconds spent in the greedy seed matching."),
		AugmentSecondsTotal: NewFloatCounter(Prefix+"planner_augment_seconds_total", "Seconds spent in blossom augmentation."),
		FreeAfterGreedy:     NewGauge(Prefix+"planner_free_after_greedy", "Vertices the last round's greedy seed left unmatched."),
		MatchedPairs:        NewGauge(Prefix+"planner_matched_pairs", "Pairs in the last round's matching."),
		ForcedRoundsTotal:   NewCounter(Prefix+"planner_forced_rounds_total", "Rounds that injected connectivity-restoring edges."),
	}
	m.Registry.MustRegister(
		m.Engine.RoundsTotal, m.Engine.RoundSeconds, m.Engine.PhaseSeconds,
		m.Engine.RendezvousWaitSeconds, m.Engine.CodecEncodeSeconds, m.Engine.CodecDecodeSeconds,
		m.Engine.WireBytesTotal, m.Engine.SimSecondsTotal,
		m.Transport.ConnectsTotal, m.Transport.AbortsTotal, m.Transport.RejoinsTotal,
		m.Transport.CrashInjectionsTotal, m.Transport.SnapshotWritesTotal, m.Transport.FramesRejectedTotal,
		m.Netsim.VirtualSeconds, m.Netsim.EventQueueDepth, m.Netsim.EventsTotal,
		m.Campaign.CellsPlanned, m.Campaign.CellsRunning, m.Campaign.CellsDoneTotal,
		m.Campaign.CellsResumedTotal, m.Campaign.CellsFailedTotal,
		m.Planner.PlanSeconds, m.Planner.GreedySecondsTotal, m.Planner.AugmentSecondsTotal,
		m.Planner.FreeAfterGreedy, m.Planner.MatchedPairs, m.Planner.ForcedRoundsTotal,
		m.Runs.active,
	)
	return m
}

// current is the process-global sink. Instrumented constructors capture
// their slice of it once; a nil pointer (the default) yields zero-value
// bundles whose methods are all no-ops.
var current atomic.Pointer[Metrics]

// Enable installs m as the process-global sink. Components built after
// this call are instrumented; components built before it keep the
// disabled sink they captured. Call it once at startup, before engines
// or servers are constructed. Enable(nil) turns observability off again.
func Enable(m *Metrics) { current.Store(m) }

// Current returns the installed sink, or nil when observability is off.
func Current() *Metrics { return current.Load() }

// EngineM returns the m's engine bundle, or a disabled zero bundle when
// m is nil — the safe way to chain off Current().
func (m *Metrics) EngineM() EngineMetrics {
	if m == nil {
		return EngineMetrics{}
	}
	return m.Engine
}

// TransportM returns m's transport bundle (disabled zero bundle when m
// is nil).
func (m *Metrics) TransportM() TransportMetrics {
	if m == nil {
		return TransportMetrics{}
	}
	return m.Transport
}

// NetsimM returns m's simulator bundle (disabled zero bundle when m is
// nil).
func (m *Metrics) NetsimM() NetsimMetrics {
	if m == nil {
		return NetsimMetrics{}
	}
	return m.Netsim
}

// CampaignM returns m's campaign bundle (disabled zero bundle when m is
// nil).
func (m *Metrics) CampaignM() CampaignMetrics {
	if m == nil {
		return CampaignMetrics{}
	}
	return m.Campaign
}

// PlannerM returns m's planner bundle (disabled zero bundle when m is
// nil).
func (m *Metrics) PlannerM() PlannerMetrics {
	if m == nil {
		return PlannerMetrics{}
	}
	return m.Planner
}

// RunsM returns m's run tracker, or nil when m is nil. RunTracker
// methods are nil-safe, so callers chain without checking.
func (m *Metrics) RunsM() *RunTracker {
	if m == nil {
		return nil
	}
	return m.Runs
}
