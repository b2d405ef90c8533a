package monitord

import (
	"io"
	"strconv"
	"sync"
	"time"

	"quicksand/internal/defense"
	"quicksand/internal/obs"
)

// metrics holds the daemon's instrumentation handles on an obs.Registry.
// Hot-path counters are inline atomic handles so the shard workers and
// session readers never contend; values that need structure traversal
// (RIB size, queue depths, session rows) are sampled at exposition time
// by collectors registered in registerCollectors. The metric names and
// label sets are the daemon's stable external interface — dashboards
// scrape them — and must not change when the backing store does.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	updates     *obs.Counter // announcements + withdrawals ingested
	withdrawals *obs.Counter
	mrtRecords  *obs.Counter

	// droppedNoASPath / droppedNonIPv4 count updates discarded before
	// ingest, pre-resolved per reason so the families appear (at 0) in
	// every exposition — silent drops were invisible before.
	droppedNoASPath *obs.Counter
	droppedNonIPv4  *obs.Counter

	alerts [3]*obs.Counter // pre-resolved by defense.AlertKind
	// alertsDropped counts real ring evictions, bumped by the ring itself
	// at the moment an unread alert is overwritten.
	alertsDropped *obs.Counter

	sessionsAccepted *obs.Counter
	sessionsActive   *obs.Gauge
	dialRetries      *obs.Counter

	// Pipeline latency instrumentation (observations gated by
	// Daemon.stageOn): per-stage histograms pre-resolved by stage label,
	// the end-to-end detection histogram, and the read batch-size
	// histogram that bounds per-update stamp skew.
	stageRead     *obs.Histogram
	stageDispatch *obs.Histogram
	stageApply    *obs.Histogram
	stageMonitor  *obs.Histogram
	detection     *obs.Histogram
	readBatchSize *obs.Histogram

	// rate is a lazily updated updates/sec gauge: each exposition
	// computes the rate over the window since the previous exposition
	// (or since start, on the first one).
	rateMu       sync.Mutex
	rateLastAt   time.Time
	rateLastSeen uint64
	rateValue    float64
}

// latencyBuckets cover the µs-to-seconds range log-spaced: fine enough
// for sub-ms pipeline stages, wide enough that a backpressure stall or a
// multi-second detection outlier still lands in a finite bucket.
var latencyBuckets = obs.ExpBucketsRange(1e-6, 10, 22)

// newMetrics registers the daemon's metric families on reg; a nil reg
// gets a private registry so a standalone daemon still serves /metrics.
// One daemon per registry: the families are registered once.
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	now := time.Now()
	m := &metrics{reg: reg, start: now, rateLastAt: now}
	m.updates = reg.Counter("monitord_updates_ingested_total", "BGP updates ingested through the pipeline.")
	m.withdrawals = reg.Counter("monitord_withdrawals_total", "Withdrawals among the ingested updates.")
	m.mrtRecords = reg.Counter("monitord_mrt_records_total", "MRT archive records ingested.")
	dropped := reg.CounterVec("monitord_updates_dropped_total", "Updates discarded before ingest, by reason.", "reason")
	m.droppedNoASPath = dropped.With("no-as-path")
	m.droppedNonIPv4 = dropped.With("non-ipv4")
	alerts := reg.CounterVec("monitord_alerts_total", "Monitor alerts raised, by kind.", "kind")
	for k := defense.AlertOriginChange; k <= defense.AlertNewUpstream; k++ {
		m.alerts[k] = alerts.With(k.String())
	}
	m.alertsDropped = reg.Counter("monitord_alerts_dropped_total", "Alerts evicted from the ring before any client read them.")
	stages := reg.HistogramVec("monitord_stage_seconds",
		"Pipeline stage latency: read (socket to dispatcher handoff), dispatch (shard queue wait), apply (RIB fold), monitor (§5 checks).",
		latencyBuckets, "stage")
	m.stageRead = stages.With("read")
	m.stageDispatch = stages.With("dispatch")
	m.stageApply = stages.With("apply")
	m.stageMonitor = stages.With("monitor")
	m.detection = reg.Histogram("monitord_detection_seconds",
		"End-to-end hijack detection latency: socket read to alert ring append.", latencyBuckets)
	m.readBatchSize = reg.Histogram("monitord_read_batch_size",
		"UPDATEs decoded per session read batch; batch size bounds the per-update stamp skew in the stage histograms.",
		obs.ExpBuckets(1, 2, 10))
	m.sessionsAccepted = reg.Counter("monitord_sessions_accepted_total", "BGP sessions ever established (inbound + outbound).")
	m.sessionsActive = reg.Gauge("monitord_sessions_active", "BGP sessions currently established.")
	m.dialRetries = reg.Counter("monitord_dial_retries_total", "Outbound collector dial attempts that failed and backed off.")
	reg.GaugeFunc("monitord_updates_per_second", "Ingest rate over the last exposition window.", m.updatesPerSec)
	reg.GaugeFunc("monitord_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(m.start).Seconds()
	})
	return m
}

// registerCollectors wires the exposition-time sampled families that
// read daemon state. Called once from New after the pipeline exists.
func (m *metrics) registerCollectors(d *Daemon) {
	m.reg.GaugeFunc("monitord_rib_prefixes", "Prefixes with at least one live route.", func() float64 {
		return float64(d.rib.Size())
	})
	m.reg.Collect("monitord_ingest_queue_depth", "Items waiting per dispatcher shard.",
		obs.KindGauge, []string{"shard"}, func(emit obs.Emit) {
			for i := range d.shards {
				emit([]string{strconv.Itoa(i)}, float64(d.shards[i].depth()))
			}
		})
	m.reg.Collect("monitord_session_updates_total", "Updates ingested per session.",
		obs.KindCounter, []string{"session", "peer_as", "source", "state"}, func(emit obs.Emit) {
			for _, p := range d.srv.Peers() { // id order
				state := "established"
				if p.Closed() {
					state = "closed"
				}
				emit([]string{strconv.Itoa(p.ID), strconv.FormatUint(uint64(p.PeerAS), 10), p.Source, state},
					float64(p.Updates.Load()))
			}
		})
}

func (m *metrics) alertCount(k defense.AlertKind) uint64 {
	if int(k) < 0 || int(k) >= len(m.alerts) {
		return 0
	}
	return m.alerts[k].Value()
}

// updatesPerSec returns the ingest rate over the window since the last
// call, falling back to the lifetime mean for sub-10ms windows (repeated
// scrapes would otherwise divide by ~zero).
func (m *metrics) updatesPerSec() float64 {
	m.rateMu.Lock()
	defer m.rateMu.Unlock()
	now := time.Now()
	cur := m.updates.Value()
	window := now.Sub(m.rateLastAt)
	if window >= 10*time.Millisecond {
		m.rateValue = float64(cur-m.rateLastSeen) / window.Seconds()
		m.rateLastAt = now
		m.rateLastSeen = cur
	}
	return m.rateValue
}

// writePrometheus renders the Prometheus text exposition format
// (version 0.0.4) from the backing registry.
func (m *metrics) writePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}
