// Package monitord is the paper's §5 monitoring framework grown into a
// long-running service: a daemon that speaks real BGP to any number of
// concurrent peers (inbound sessions and outbound collector sessions),
// replays MRT archives, funnels every update through a bounded,
// backpressure-aware sharded pipeline into a live RIB, runs the
// defense.Monitor origin/upstream checks in streaming mode, escalates the
// alerts through the Counter-RAPTOR anomaly detectors, and exposes the
// results over an HTTP API (/alerts, /anomalies, /rib, /healthz,
// /metrics, and with Config.Pprof /debug/pprof/).
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
//   - the session front (bgpd.Server) runs one reader goroutine per BGP
//     session; the daemon's sink hashes each prefix to its shard once
//     (with Config.DropUnwatched, after dropping what no watched prefix
//     covers) and stages the update in that shard's run, so each
//     prefix's updates are processed in arrival order;
//   - a run is one session's updates for one shard out of one read batch,
//     their lent paths copied into its arena (the live RIB copies again
//     into storage it owns). Runs come from a fixed per-session budget
//     that workers return them to; an empty budget blocks the reader, so a
//     flooding peer backpressures its own TCP session in bounded memory;
//   - each shard worker folds a run into its slice of the live RIB under
//     one lock, then runs the (concurrency-safe) monitor over it,
//     appending alerts to a ring buffer with monotonically increasing
//     sequence numbers and feeding them to the anomaly detectors. An
//     alert names the updated prefix, which one worker owns, so each
//     prefix's alerts reach the per-prefix detectors in order;
//   - shutdown stops the session front (dialers, listener, sessions,
//     readers), then closes the shard channels and drains them — no
//     goroutine outlives Shutdown.
package monitord

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
	"quicksand/internal/iptrie"
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
	// Pprof mounts net/http/pprof under /debug/pprof/ on the HTTP API
	// (nothing without ListenHTTP).
	Pprof bool

	// Collectors lists remote BGP speakers to dial and keep sessions
	// with, reconnecting with jittered exponential backoff.
	Collectors []string

	// Shards is the dispatcher width (default 8).
	Shards int
	// DropUnwatched drops, before the RIB, every update that
	// defense.Monitor.Relevant rejects — one no watched prefix matches or
	// covers, which can raise no alert — on every input (serve -fleet).
	// /rib then answers only for watched routes and their more-specifics.
	DropUnwatched bool
	// AlertBuffer is the alert ring capacity (default 4096).
	AlertBuffer int
	// ReadBatch bounds how many UPDATEs a session reader decodes per
	// RecvUpdateBatch call before handing them to the dispatcher (zero:
	// the session front's default).
	ReadBatch int

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
	// rest of the schedule is fixed in bgpd.
	DialBackoffBase time.Duration
	// Seed derives the backoff jitter (zero: the session front's
	// default); fixed so tests are reproducible.
	Seed int64

	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)

	// Registry, when set, receives the daemon's monitord_* metric
	// families so its /metrics also serves other subsystems' families
	// registered there (serve adds bgpd_*). Nil gives the daemon a
	// private registry. One daemon per registry.
	Registry *obs.Registry
}

// queueDepth is each dispatcher shard's channel capacity in elements (a
// session's run or one Ingest update); a full queue blocks the producer,
// which is what backpressures Ingest — sessions spend their runs first.
const queueDepth = 1024

// anomalyBuffer bounds the recent anomalies kept for /anomalies.
const anomalyBuffer = 256

// runsPerShard × Shards is a session's run budget: strictly more than
// Shards, so a reader holding one half-filled run per shard always has
// runs in flight that a worker will hand back.
const runsPerShard = 8

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

// item is one dispatcher channel element: a read batch's run of one
// session's updates for the shard, or (run nil) a single Ingest update
// carried by value, so Ingest allocates nothing.
type item struct {
	si *bgpd.Peer
	t  time.Time
	// rt is the internal receive stamp — time.Now() taken when the item's
	// batch came off the socket (or when Ingest enqueued it), so it
	// carries a monotonic clock reading. Stage and detection latencies are
	// measured with time.Since against rt; the semantic timestamp t is
	// caller-supplied on the Ingest/MRT paths and has no monotonic
	// reading, so it must never feed a latency histogram.
	rt  time.Time
	run *run

	key uint64 // iptrie.Key of the prefix
	// path distinguishes nil from empty: nil is a withdrawal, a non-nil
	// empty slice is an announcement whose AS_PATH attribute was present
	// but had zero segments (legal; it must not flatten into a phantom
	// withdrawal).
	path []bgp.ASN
}

// run holds one session's updates for one shard out of one read batch, so
// a channel send, a RIB lock and a round of counter updates are amortised
// across them. The worker hands a processed run back to home, the
// session's budget.
type run struct {
	upds  []upd
	arena []bgp.ASN // the updates' paths, copied out of the reader's scratch
	home  chan *run
}

// upd is one update of a run. key is its prefix's iptrie.Key, derived
// once on the reader. Its path is arena[off:off+n]; n < 0 is a withdrawal
// (nil path), n == 0 an announcement with an empty AS_PATH.
type upd struct {
	key    uint64
	off, n int32
}

func (u *upd) path(arena []bgp.ASN) []bgp.ASN {
	if u.n < 0 {
		return nil
	}
	return arena[u.off : u.off+u.n : u.off+u.n]
}

// shardQueue is one dispatcher shard's inbox. enqueued − processed is its
// depth in updates, counting the run its worker has dequeued.
type shardQueue struct {
	ch                  chan item
	enqueued, processed atomic.Uint64
}

func (q *shardQueue) depth() uint64 {
	done := q.processed.Load() // first: a concurrent enqueue must not make it negative
	return q.enqueued.Load() - done
}

// Daemon is a running monitord instance. Create with New, stop with
// Shutdown.
type Daemon struct {
	cfg Config
	mon *defense.Monitor
	rib *liveRIB
	rng *alertLog
	met *metrics

	det    *defense.AnomalyDetector
	anomMu sync.Mutex
	anoms  []defense.Anomaly // the anomalyBuffer most recent

	shards  []shardQueue // shards[i] feeds the worker that owns rib.shards[i]
	shardWG sync.WaitGroup

	srv *bgpd.Server // session front: listener, collectors, peer registry
	api *httpServer

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
	met := newMetrics(cfg.Registry, cfg.DropUnwatched)
	d := &Daemon{
		cfg: cfg, mon: mon,
		rib:    newLiveRIB(cfg.Shards),
		rng:    newAlertLog(cfg.AlertBuffer, met.alertsDropped),
		met:    met,
		det:    defense.NewAnomalyDetector(defense.AnomalyConfig{}),
		shards: make([]shardQueue, cfg.Shards),
	}
	d.srv, err = bgpd.NewServer(bgpd.ServerConfig{
		Name: "monitord", Speaker: cfg.Speaker, Listen: cfg.ListenBGP,
		ReadBatch: cfg.ReadBatch, DialBackoffBase: cfg.DialBackoffBase,
		Seed: cfg.Seed, Logf: cfg.Logf,
		SessionsAccepted: met.sessionsAccepted, SessionsActive: met.sessionsActive,
		DroppedNoASPath: met.droppedNoASPath,
		NewSink:         d.newSink,
	})
	if err != nil {
		return nil, fmt.Errorf("monitord: BGP listener: %w", err)
	}
	if d.api, err = listenHTTP(cfg.ListenHTTP); err != nil {
		d.srv.Shutdown()
		return nil, fmt.Errorf("monitord: HTTP listener: %w", err)
	}

	for i := range d.shards {
		d.shards[i].ch = make(chan item, queueDepth)
		d.shardWG.Add(1)
		go d.worker(i)
	}
	d.met.registerCollectors(d)
	d.srv.Start()
	for _, addr := range cfg.Collectors {
		d.srv.Collect(addr, met.dialRetries)
	}
	d.api.Serve(d.handler())
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
// resynchronize by adopting the returned cursor. See alertLog.Since.
func (d *Daemon) Alerts(cursor uint64, max int) (alerts []SeqAlert, next uint64, dropped uint64) {
	return d.rng.Since(cursor, max)
}

// Anomalies returns the recent escalated anomalies (newest last) plus
// the detectors' lifetime totals.
func (d *Daemon) Anomalies() (recent []defense.Anomaly, observed uint64, escalated map[defense.AnomalyKind]uint64) {
	d.anomMu.Lock()
	recent = slices.Clone(d.anoms)
	d.anomMu.Unlock()
	observed, escalated = d.det.Totals()
	return recent, observed, escalated
}

// escalate feeds one appended alert to the anomaly detectors and keeps
// what they escalate.
func (d *Daemon) escalate(a defense.Alert) {
	for _, an := range d.det.Observe(a) {
		d.met.anomalies[an.Kind].Inc()
		d.cfg.Logf("monitord: anomaly %s on %v score=%.2f (%d alerts in window)",
			an.Kind, an.Prefix, an.Score, an.Alerts)
		d.anomMu.Lock()
		d.anoms = append(d.anoms, an)
		if over := len(d.anoms) - anomalyBuffer; over > 0 {
			d.anoms = append(d.anoms[:0], d.anoms[over:]...)
		}
		d.anomMu.Unlock()
	}
}

func (d *Daemon) newSink(si *bgpd.Peer) bgpd.UpdateSink {
	return &sessionSink{
		d: d, si: si, open: make([]*run, len(d.shards)),
		free: make(chan *run, runsPerShard*len(d.shards)),
	}
}

// sessionSink is one BGP session's path into the dispatcher: it stages
// the session's prefix-level updates in per-shard runs and hands each
// run over at the end of the read batch — one channel send per (shard,
// batch) instead of per prefix. Every update carries the batch-start
// stamp, so per-update latency skew is bounded by the batch decode time,
// and the read-stage histogram measures batch-start to dispatcher
// handoff, including any backpressure stall.
type sessionSink struct {
	d    *Daemon
	si   *bgpd.Peer
	open []*run    // the run being filled per shard, nil when none
	free chan *run // the session's budget: runs no shard holds
	made int       // runs allocated so far, at most cap(free)
}

// Update copies the lent path into its shard's open run (non-IPv4, and
// unwatched under DropUnwatched: dropped, counted).
func (s *sessionSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	k, ok := s.d.admit(prefix)
	if !ok {
		return
	}
	shard := s.d.rib.shardOf(k)
	r := s.open[shard]
	if r == nil {
		r = s.take()
		s.open[shard] = r
	}
	u := upd{key: k, off: int32(len(r.arena)), n: -1}
	if path != nil {
		u.n = int32(len(path))
		r.arena = append(r.arena, path...)
	}
	r.upds = append(r.upds, u)
}

// take draws a run from the budget, made on demand; once it is, an empty
// list blocks the reader until a worker returns one — the backpressure.
func (s *sessionSink) take() *run {
	if len(s.free) == 0 && s.made < cap(s.free) { // only workers add to free
		s.made++
		// A non-nil arena, so an empty path sliced from it stays non-nil.
		return &run{arena: []bgp.ASN{}, home: s.free}
	}
	return <-s.free
}

func (s *sessionSink) Flush(start time.Time, n int) {
	it := item{si: s.si, t: start, rt: start}
	taken := 0
	for shard, r := range s.open {
		if r == nil {
			continue
		}
		s.open[shard] = nil
		q := &s.d.shards[shard]
		q.enqueued.Add(uint64(len(r.upds)))
		taken += len(r.upds)
		it.run = r
		q.ch <- it
	}
	// Counted on the reader, before the session can end, so Collect sees
	// that it delivered.
	s.si.Updates.Add(uint64(taken))
	s.d.met.readBatchSize.Observe(float64(n))
	s.d.met.stageRead.Observe(time.Since(start).Seconds())
}

// worker is one dispatcher shard: it owns the RIB shard of the same index
// and puts what its queue carries, a run or a single Ingest update,
// through the one process body; a run then returns to its session.
func (d *Daemon) worker(shard int) {
	defer d.shardWG.Done()
	for it := range d.shards[shard].ch {
		if r := it.run; r != nil {
			d.process(shard, &it, r.upds, r.arena)
			r.upds, r.arena = r.upds[:0], r.arena[:0]
			r.home <- r // never blocks: home holds the whole budget
			continue
		}
		one := [1]upd{{key: it.key, n: -1}}
		if it.path != nil {
			one[0].n = int32(len(it.path))
		}
		d.process(shard, &it, one[:], it.path)
	}
}

// process folds one run of a session's updates (paths in arena) into the
// worker's RIB shard under a single lock, then runs the streaming monitor
// over it.
//
// Latency accounting is amortised per run: the dispatch stage (receive
// stamp to dequeue) is observed once, and the apply/monitor stages are
// timed on the run's last update only — every update of a run shares the
// batch-start stamp, so the last is the conservative upper bound, and a
// large ReadBatch costs a handful of clock reads instead of two per
// update. A single Ingest update observes every stage. Detection latency
// is observed for every alert regardless, measured monotonically from the
// receive stamp.
func (d *Daemon) process(shard int, it *item, upds []upd, arena []bgp.ASN) {
	si, t, rt := it.si, it.t, it.rt
	d.met.stageDispatch.Observe(time.Since(rt).Seconds())
	last := len(upds) - 1
	var t0 time.Time
	withdrawals := 0
	sh := &d.rib.shards[shard]
	sh.mu.Lock()
	for i := range upds {
		if i == last {
			t0 = time.Now()
		}
		path := upds[i].path(arena)
		if path == nil {
			withdrawals++
		}
		sh.apply(t, si.ID, upds[i].key, path)
	}
	sh.mu.Unlock()
	d.met.stageApply.Observe(time.Since(t0).Seconds())
	n := uint64(len(upds))
	d.met.updates.Add(n)
	d.met.withdrawals.Add(uint64(withdrawals))

	learn := uint64(d.cfg.LearnUpdates)
	for i := range upds {
		ev := bgpsim.UpdateEvent{Time: t, Session: si.ID, Prefix: iptrie.KeyPrefix(upds[i].key), Path: upds[i].path(arena)}
		if learn > 0 {
			if seen := d.learnSeen.Add(1); seen <= learn {
				d.mon.Learn(&ev)
				if seen == learn {
					d.mon.EnableUpstream()
					d.cfg.Logf("monitord: learning window done (%d updates), upstream alarms on", learn)
				}
				continue
			}
		}
		timed := i == last
		if timed {
			t0 = time.Now()
		}
		alerts := d.mon.Observe(&ev)
		if timed {
			d.met.stageMonitor.Observe(time.Since(t0).Seconds())
		}
		for _, a := range alerts {
			d.rng.Append(a)
			d.met.detection.Observe(time.Since(rt).Seconds())
			if int(a.Kind) >= 0 && int(a.Kind) < len(d.met.alerts) {
				d.met.alerts[a.Kind].Add(1)
			}
			d.escalate(a)
		}
	}
	d.shards[shard].processed.Add(n)
}

// RegisterSource allocates a session id for an in-process update source
// (MRT replay, simulation streams, tests) so its updates are tracked
// like any BGP peer's.
func (d *Daemon) RegisterSource(name string, peer bgp.ASN) int {
	return d.srv.Register(name, peer).ID
}

// Ingest feeds one update into the pipeline as if received on the given
// source session, preserving the caller's timestamp, and blocks while the
// prefix's shard queue is full (backpressure). It must not be called
// after Shutdown. A nil path is a withdrawal; path is handed over. The
// RIB and any alert name the prefix masked, as the wire carries it.
func (d *Daemon) Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error {
	si, ok := d.srv.Peer(session)
	if !ok {
		return fmt.Errorf("monitord: unknown session %d", session)
	}
	k, ok := d.admit(prefix)
	if !ok {
		return nil
	}
	it := item{si: si, t: t, rt: time.Now(), key: k, path: path}
	q := &d.shards[d.rib.shardOf(k)]
	q.enqueued.Add(1)
	si.Updates.Add(1)
	q.ch <- it
	return nil
}

// admit returns prefix's iptrie.Key and whether its update goes on to a
// shard: a non-IPv4 prefix is dropped, and under DropUnwatched so is one
// the monitor calls irrelevant, each counted. It allocates nothing.
func (d *Daemon) admit(prefix netip.Prefix) (uint64, bool) {
	k, ok := iptrie.Key(prefix)
	switch {
	case !ok:
		d.met.droppedNonIPv4.Add(1)
	case d.cfg.DropUnwatched && !d.mon.Relevant(k):
		d.met.unwatched.Add(1)
	default:
		return k, true
	}
	return 0, false
}

// WaitQuiesce blocks until every enqueued item has been processed, or
// the timeout elapses; it reports whether the pipeline went idle. Tests
// and MRT batch loads use it to read consistent state.
func (d *Daemon) WaitQuiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		// Every processed count is read before any enqueued count, so
		// equal sums mean all shards were idle in between.
		var done, in uint64
		for i := range d.shards {
			done += d.shards[i].processed.Load()
		}
		for i := range d.shards {
			in += d.shards[i].enqueued.Load()
		}
		if done == in {
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
		for i := range d.shards {
			close(d.shards[i].ch)
		}
		d.shardWG.Wait()
		d.shutErr = d.api.Shutdown(ctx)
		d.cfg.Logf("monitord: shutdown complete (%d updates ingested, %d alerts)",
			d.met.updates.Value(), d.rng.Total())
	})
	return d.shutErr
}
