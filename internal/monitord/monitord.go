// Package monitord is the paper's §5 monitoring framework grown into a
// long-running service: a daemon that speaks real BGP to any number of
// concurrent peers (inbound sessions and outbound collector sessions),
// replays MRT archives, funnels every update through a bounded,
// backpressure-aware sharded pipeline into a live RIB, runs the
// defense.Monitor origin/upstream checks in streaming mode, and exposes
// the results over an HTTP API (/alerts, /rib, /healthz, /metrics).
//
// Counter-RAPTOR (Sun et al., 2017) deployed exactly this shape of
// system against live update feeds; monitord is the serving layer that
// turns the repository's batch monitor (defense.RunMonitor) into a
// continuously tracking one, per Juen et al.'s observation that
// detection value depends on continuously tracked path state rather
// than snapshots.
//
// Concurrency model:
//
//   - the session front (bgpd.Server, shared with the fleet router) runs
//     one reader goroutine per BGP session; the daemon's sink stages one
//     item per prefix for the dispatcher shard chosen by hashing the
//     prefix, so each prefix's updates are processed in arrival order;
//   - shard channels are bounded: a flooding peer backpressures its own
//     TCP session instead of growing memory;
//   - each shard worker folds items into its slice of the live RIB and
//     runs the (concurrency-safe) monitor, appending alerts to a ring
//     buffer with monotonically increasing sequence numbers;
//   - shutdown stops the session front (dialers, listener, sessions,
//     readers), then closes the shard channels and drains them — no
//     goroutine outlives Shutdown.
package monitord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
	"quicksand/internal/obs"
)

// Config parameterises the daemon.
type Config struct {
	// Watched maps each monitored prefix to its legitimate origin AS
	// (required, non-empty).
	Watched map[netip.Prefix]bgp.ASN

	// Speaker is the daemon's BGP identity for inbound and outbound
	// sessions. Its OnClose hook is reserved for the daemon.
	Speaker bgpd.Config

	// ListenBGP is the TCP address accepting inbound BGP sessions
	// ("" disables inbound BGP).
	ListenBGP string
	// ListenHTTP is the TCP address serving the HTTP API
	// ("" disables HTTP).
	ListenHTTP string

	// Collectors lists remote BGP speakers to dial and keep sessions
	// with, reconnecting with jittered exponential backoff.
	Collectors []string

	// Shards is the dispatcher width (default 8).
	Shards int
	// AlertBuffer is the alert ring capacity (default 4096).
	AlertBuffer int
	// ReadBatch bounds how many UPDATEs a session reader decodes per
	// RecvUpdateBatch call before handing them to the dispatcher (zero:
	// the session front's default). 1 degenerates to the old per-message
	// path.
	ReadBatch int

	// DisableLatencyMetrics turns off the pipeline's latency
	// instrumentation (monitord_stage_seconds, monitord_detection_seconds,
	// monitord_read_batch_size observations): the families still appear in
	// /metrics at zero, but the hot path takes no extra monotonic clock
	// readings — the knob that keeps the disabled-observability overhead
	// bound where PR 4 pinned it.
	DisableLatencyMetrics bool

	// LearnUpdates treats (approximately) the first N ingested updates
	// as a clean learning window for new-upstream alarms: they train the
	// monitor without raising alerts, after which upstream alarms switch
	// on. Zero disables the learning window.
	LearnUpdates int
	// UpstreamAlarms enables new-upstream alarms immediately, with
	// whatever has been learned so far (mostly useful with
	// LearnUpdates=0 for differential tests against the batch monitor).
	UpstreamAlarms bool

	// DialBackoffBase is where the reconnect backoff for outbound
	// collector sessions starts (zero: the session front's default). The
	// rest of the schedule is bgpd.ServerConfig's.
	DialBackoffBase time.Duration
	// Seed derives the backoff jitter (zero: the session front's
	// default); fixed so tests are reproducible.
	Seed int64

	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)

	// Registry, when set, receives the daemon's monitord_* metric
	// families so /metrics can be aggregated with other subsystems (or
	// served by an external obs endpoint). Nil gives the daemon a
	// private registry. One daemon per registry.
	Registry *obs.Registry
}

// queueDepth bounds each dispatcher shard's ingest queue; a full queue
// blocks the producer, which is how a flooding peer backpressures its own
// TCP session.
const queueDepth = 1024

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 8
	}
	if out.AlertBuffer <= 0 {
		out.AlertBuffer = 4096
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Front is the surface a single daemon and a fleet router share, named
// once: sessions arrive by themselves (inbound on BGPAddr, outbound to
// the configured collectors); in-process sources and MRT archives enter
// through RegisterSource, Ingest and IngestMRT; WaitQuiesce reports when
// what entered has been absorbed; alerts leave through Alerts and the
// HTTP API; Shutdown stops it all. serve, the differential checkers and
// the conformance tables drive either front through it.
type Front interface {
	AlertSource
	RegisterSource(name string, peer bgp.ASN) int
	Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error
	IngestMRT(r io.Reader, label string) (*MRTStats, error)
	WaitQuiesce(timeout time.Duration) bool
	BGPAddr() string
	HTTPAddr() string
	Shutdown(ctx context.Context) error
}

// item is one prefix-level update flowing through the dispatcher — or,
// when batch is non-nil, a whole run of items bound for the same shard
// (one channel send amortised across a session reader's decode batch;
// the single-item form keeps the in-process Ingest path allocation-free).
type item struct {
	si *bgpd.Peer
	t  time.Time
	// rt is the internal receive stamp — time.Now() taken when the item's
	// batch came off the socket (or when Ingest enqueued it), so it
	// carries a monotonic clock reading. Stage and detection latencies are
	// measured with time.Since against rt; the semantic timestamp t is
	// caller-supplied on the Ingest/MRT paths and has no monotonic
	// reading, so it must never feed a latency histogram. Zero when
	// latency metrics are disabled.
	rt     time.Time
	prefix netip.Prefix
	// path distinguishes nil from empty: nil is a withdrawal, a non-nil
	// empty slice is an announcement whose AS_PATH attribute was present
	// but had zero segments (legal; it must not flatten into a phantom
	// withdrawal).
	path  []bgp.ASN
	batch []item
}

// Daemon is a running monitord instance. Create with New, stop with
// Shutdown.
type Daemon struct {
	cfg Config
	mon *defense.Monitor
	rib *liveRIB
	rng *AlertLog
	met *metrics
	// stageOn gates every latency observation (and the clock reads that
	// feed them) so the disabled path costs nothing.
	stageOn bool

	shards  []chan item
	shardWG sync.WaitGroup

	srv *bgpd.Server // session front: listener, collectors, peer registry
	api *HTTPServer
	mux http.Handler

	enqueued  atomic.Uint64
	processed atomic.Uint64
	learnSeen atomic.Uint64

	shutOnce sync.Once
	shutErr  error
}

// New validates cfg, binds the configured listeners, and starts the
// pipeline, the acceptor, the collector dialers, and the HTTP server.
// The daemon runs until Shutdown.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Watched) == 0 {
		return nil, errors.New("monitord: Watched must name at least one prefix")
	}
	mon, err := defense.NewMonitor(cfg.Watched)
	if err != nil {
		return nil, err
	}
	if cfg.UpstreamAlarms {
		mon.EnableUpstream()
	}
	// Metrics before the ring: eviction accounting needs the real
	// monitord_alerts_dropped_total counter at ring construction.
	met := newMetrics(cfg.Registry)
	d := &Daemon{
		cfg: cfg, mon: mon,
		rib:     newLiveRIB(cfg.Shards),
		rng:     NewAlertLog(cfg.AlertBuffer, met.alertsDropped),
		met:     met,
		stageOn: !cfg.DisableLatencyMetrics,
		shards:  make([]chan item, cfg.Shards),
	}
	d.mux = d.handler()
	d.srv, err = bgpd.NewServer(bgpd.ServerConfig{
		Name: "monitord", Speaker: cfg.Speaker, Listen: cfg.ListenBGP,
		ReadBatch: cfg.ReadBatch, DialBackoffBase: cfg.DialBackoffBase,
		Seed: cfg.Seed, Logf: cfg.Logf,
		SessionsAccepted: met.sessionsAccepted, SessionsActive: met.sessionsActive,
		DroppedNoASPath: met.droppedNoASPath,
		NewSink: func(p *bgpd.Peer) bgpd.UpdateSink {
			return &sessionSink{d: d, si: p, bufs: make([][]item, len(d.shards))}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("monitord: BGP listener: %w", err)
	}
	if d.api, err = ListenHTTP(cfg.ListenHTTP); err != nil {
		d.srv.Shutdown()
		return nil, fmt.Errorf("monitord: HTTP listener: %w", err)
	}

	for i := range d.shards {
		d.shards[i] = make(chan item, queueDepth)
		d.shardWG.Add(1)
		go d.worker(d.shards[i])
	}
	d.met.registerCollectors(d)
	d.srv.Start()
	for _, addr := range cfg.Collectors {
		d.srv.Collect(addr, met.dialRetries)
	}
	d.api.Serve(d.mux)
	if addr := d.BGPAddr(); addr != "" {
		cfg.Logf("monitord: BGP listening on %s", addr)
	}
	if addr := d.HTTPAddr(); addr != "" {
		cfg.Logf("monitord: HTTP listening on %s", addr)
	}
	return d, nil
}

// BGPAddr returns the bound BGP listener address ("" when disabled).
func (d *Daemon) BGPAddr() string { return d.srv.Addr() }

// HTTPAddr returns the bound HTTP listener address ("" when disabled).
func (d *Daemon) HTTPAddr() string { return d.api.Addr() }

// Handler returns the daemon's HTTP API (/alerts, /rib, /healthz,
// /metrics) for callers that front it themselves, such as the fleet
// router answering /rib from the owning shard.
func (d *Daemon) Handler() http.Handler { return d.mux }

// RIB exposes the live routing table for in-process consumers.
func (d *Daemon) RIB() interface {
	Lookup(netip.Prefix) (*RIBEntry, bool)
	LookupAddr(netip.Addr) (*RIBEntry, bool)
	Size() int
	Walk(func(*RIBEntry) bool)
} {
	return d.rib
}

// Alerts returns up to max alerts with sequence >= cursor, the cursor
// to pass on the next call, and how many alerts in the requested range
// were evicted unseen; max <= 0 means no limit. A cursor ahead of the
// live sequence (stale client after a daemon restart) is clamped to the
// current head: empty result, next == head, dropped == 0 — callers
// resynchronize by adopting the returned cursor. See AlertLog.Since.
func (d *Daemon) Alerts(cursor uint64, max int) (alerts []SeqAlert, next uint64, dropped uint64) {
	return d.rng.Since(cursor, max)
}

// sessionSink is one BGP session's path into the dispatcher: it stages
// the session's prefix-level updates in per-shard runs and hands each
// run over at the end of the read batch — one channel send per (shard,
// batch) instead of per prefix. Every item carries the batch-start
// stamp, so per-update latency skew is bounded by the batch decode time,
// and the read-stage histogram measures batch-start to dispatcher
// handoff, including any backpressure stall.
type sessionSink struct {
	d    *Daemon
	si   *bgpd.Peer
	bufs [][]item // pending run per shard
}

func (s *sessionSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	it := item{si: s.si, t: t, prefix: prefix, path: path}
	if s.d.stageOn {
		it.rt = t
	}
	s.d.stageItem(s.bufs, it)
}

func (s *sessionSink) Flush(start time.Time, n int) {
	s.d.flushShardBufs(s.bufs)
	if s.d.stageOn {
		s.d.met.readBatchSize.Observe(float64(n))
		s.d.met.stageRead.Observe(time.Since(start).Seconds())
	}
}

// stageItem validates one item and appends it to its shard's pending
// run (dropping non-IPv4 prefixes, counted).
func (d *Daemon) stageItem(shardBufs [][]item, it item) {
	if !it.prefix.IsValid() || !it.prefix.Addr().Is4() {
		d.met.droppedNonIPv4.Add(1)
		return
	}
	shard := d.rib.shardOf(it.prefix)
	shardBufs[shard] = append(shardBufs[shard], it)
}

// flushShardBufs sends every staged run to its shard worker as a single
// batch item and resets the buffers (ownership of each slice passes to
// the worker).
func (d *Daemon) flushShardBufs(shardBufs [][]item) {
	for shard, items := range shardBufs {
		if len(items) == 0 {
			continue
		}
		shardBufs[shard] = nil
		d.enqueued.Add(uint64(len(items)))
		d.shards[shard] <- item{batch: items}
	}
}

// enqueue dispatches one item to its prefix's shard, blocking when the
// shard queue is full (backpressure).
func (d *Daemon) enqueue(it item) {
	if !it.prefix.IsValid() || !it.prefix.Addr().Is4() {
		d.met.droppedNonIPv4.Add(1)
		return
	}
	if d.stageOn {
		it.rt = time.Now()
	}
	d.enqueued.Add(1)
	d.shards[d.rib.shardOf(it.prefix)] <- it
}

// worker is one dispatcher shard: RIB fold, monitor check, alert fanout.
// A channel element is either one item or a whole same-shard batch.
//
// Latency accounting is amortised per channel element: the dispatch
// stage (receive stamp to dequeue) is observed once per element, and the
// apply/monitor stages are timed on the element's last item only — every
// item of a batch shares the same batch-start stamp, so the last item is
// the conservative upper bound, and a large ReadBatch costs a handful of
// clock reads instead of two per update. Singleton items (the Ingest
// path) observe every stage.
func (d *Daemon) worker(ch chan item) {
	defer d.shardWG.Done()
	for it := range ch {
		if it.batch != nil {
			if d.stageOn && len(it.batch) > 0 && !it.batch[0].rt.IsZero() {
				d.met.stageDispatch.Observe(time.Since(it.batch[0].rt).Seconds())
			}
			last := len(it.batch) - 1
			for i := range it.batch {
				d.process(&it.batch[i], i == last)
			}
			continue
		}
		if d.stageOn && !it.rt.IsZero() {
			d.met.stageDispatch.Observe(time.Since(it.rt).Seconds())
		}
		d.process(&it, true)
	}
}

// process folds one item into the shard's RIB slice and runs the
// streaming monitor. A nil path is a withdrawal; a non-nil empty path is
// an announcement with an empty AS_PATH (stored, not withdrawn, and not
// counted as a withdrawal). observe enables the apply/monitor stage
// timing for this item; detection latency is observed for every alert
// regardless, measured monotonically from the receive stamp.
func (d *Daemon) process(it *item, observe bool) {
	observe = observe && d.stageOn && !it.rt.IsZero()
	var t0 time.Time
	if observe {
		t0 = time.Now()
	}
	d.rib.apply(it.t, it.si.ID, it.prefix, it.path)
	if observe {
		d.met.stageApply.Observe(time.Since(t0).Seconds())
	}
	it.si.Updates.Add(1)
	d.met.updates.Add(1)
	if it.path == nil {
		d.met.withdrawals.Add(1)
	}
	ev := bgpsim.UpdateEvent{Time: it.t, Session: it.si.ID, Prefix: it.prefix, Path: it.path}
	n := d.learnSeen.Add(1)
	if learn := uint64(d.cfg.LearnUpdates); n <= learn {
		d.mon.Learn(&ev)
		if n == learn {
			d.mon.EnableUpstream()
			d.cfg.Logf("monitord: learning window done (%d updates), upstream alarms on", learn)
		}
	} else {
		if observe {
			t0 = time.Now()
		}
		alerts := d.mon.Observe(&ev)
		if observe {
			d.met.stageMonitor.Observe(time.Since(t0).Seconds())
		}
		for _, a := range alerts {
			d.rng.Append(a)
			if d.stageOn && !it.rt.IsZero() {
				d.met.detection.Observe(time.Since(it.rt).Seconds())
			}
			if int(a.Kind) >= 0 && int(a.Kind) < len(d.met.alerts) {
				d.met.alerts[a.Kind].Add(1)
			}
		}
	}
	d.processed.Add(1)
}

// RegisterSource allocates a session id for an in-process update source
// (MRT replay, simulation streams, tests) so its updates are tracked
// like any BGP peer's.
func (d *Daemon) RegisterSource(name string, peer bgp.ASN) int {
	return d.srv.Register(name, peer).ID
}

// Ingest feeds one update into the pipeline as if received on the given
// source session, preserving the caller's timestamp. It must not be
// called after Shutdown. A nil path is a withdrawal.
func (d *Daemon) Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error {
	si, ok := d.srv.Peer(session)
	if !ok {
		return fmt.Errorf("monitord: unknown session %d", session)
	}
	d.enqueue(item{si: si, t: t, prefix: prefix, path: path})
	return nil
}

// WaitQuiesce blocks until every enqueued item has been processed, or
// the timeout elapses; it reports whether the pipeline went idle. Tests
// and MRT batch loads use it to read consistent state.
func (d *Daemon) WaitQuiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if d.processed.Load() == d.enqueued.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Shutdown gracefully stops the daemon: no new sessions, every live
// session closed, the pipeline drained, and the HTTP server stopped.
// It is idempotent; ctx bounds only the HTTP drain.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.shutOnce.Do(func() {
		d.srv.Shutdown()
		// All producers are gone: close the shards and drain them.
		for _, ch := range d.shards {
			close(ch)
		}
		d.shardWG.Wait()
		d.shutErr = d.api.Shutdown(ctx)
		d.cfg.Logf("monitord: shutdown complete (%d updates ingested, %d alerts)",
			d.met.updates.Value(), d.rng.Total())
	})
	return d.shutErr
}
