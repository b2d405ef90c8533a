// Package fleet shards the monitord watchlist horizontally: a router
// hash-partitions the Tor-prefix watchlist across N monitord instances
// (in-process shards or remote daemons) and forwards each UPDATE only to
// the shard owning a matching watched prefix. Routing is
// longest-prefix-aware — a *more-specific* hijack of a watched prefix
// reaches the shard owning the covering prefix, the case naive
// prefix-hashing misroutes — and everything else is rejected at the
// router without ever touching a shard pipeline, which is where the
// fleet's throughput win comes from: under real load almost all traffic
// is unwatched background churn, and the PR 9 stage histograms show the
// single daemon spending its saturation budget dispatching exactly that
// traffic.
//
// The router is a second user of the service front a single daemon runs
// on — bgpd.Server for the session lifecycle, monitord's alert log and
// HTTP surface — so it exposes the same API: /alerts
// serves a merged stream with one monotonic cursor backed by a vector of
// per-shard cursors, /healthz aggregates shard health, /metrics merges
// the fleet_* families with every shard's monitord_* families via the
// obs scraper/merger, and /rib proxies to the owning shard. On the
// merged stream, Counter-RAPTOR-style detectors (defense.AnomalyDetector)
// escalate raw alerts to scored anomalies served on /anomalies.
//
// Remote shards are forwarded over real BGP sessions with buffered
// redial + replay on the collector backoff schedule (bgpd.Backoff): a
// dead shard's updates queue in a bounded buffer and replay when the
// forwarder re-establishes, so a shard restart loses nothing that fits
// the buffer. Remote mode trades two fidelities for isolation: alert
// Session ids are the remote daemon's, and semantic timestamps are
// re-stamped at the remote's socket (BGP carries no timestamps).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/defense"
	"quicksand/internal/monitord"
	"quicksand/internal/obs"
)

// RemoteShard names one remote monitord instance behind the router.
type RemoteShard struct {
	// Name labels the shard in health output (default "shard<i>").
	Name string
	// BGPAddr is the daemon's BGP listener, the forwarding target.
	BGPAddr string
	// HTTPAddr is the daemon's HTTP root ("host:port"), polled for
	// alerts and scraped for metrics.
	HTTPAddr string
}

// Config parameterises the router.
type Config struct {
	// Watched maps each monitored prefix to its legitimate origin AS
	// (required, non-empty, IPv4 only). The router partitions it across
	// the shards with Partition.
	Watched map[netip.Prefix]bgp.ASN

	// Shards is the number of in-process monitord shards to run
	// (default 2). Ignored when Remotes is non-empty.
	Shards int
	// Remotes switches the router to remote mode: one forwarder per
	// listed daemon, no in-process shards.
	Remotes []RemoteShard

	// ShardConfig is the template for in-process shard daemons. The
	// router overrides Watched (the shard's partition), the listeners
	// (in-process shards serve no BGP or HTTP), Collectors (none) and
	// Registry (one private registry per shard, aggregated by the
	// router's /metrics); every other knob — pipeline widths, alert
	// buffer, learning window, latency instrumentation, seed — passes
	// through to each shard.
	ShardConfig monitord.Config

	// Speaker is the router's BGP identity for inbound sessions and
	// outbound forwarding sessions.
	Speaker bgpd.Config
	// ListenBGP accepts inbound BGP sessions ("" disables).
	ListenBGP string
	// ListenHTTP serves the fleet HTTP API ("" disables).
	ListenHTTP string

	// ReadBatch bounds UPDATEs decoded per session read (default 64).
	ReadBatch int
	// AlertBuffer is the merged alert ring capacity (default 8192).
	AlertBuffer int
	// MergeInterval is the shard-ring poll period (default 2ms).
	MergeInterval time.Duration
	// ForwardBuffer bounds the per-remote replay queue (default 8192
	// updates); overflow while a shard is down is dropped and counted.
	ForwardBuffer int

	// Anomaly parameterises the Counter-RAPTOR detectors on the merged
	// stream (zero value: defense.AnomalyConfig defaults).
	Anomaly defense.AnomalyConfig
	// AnomalyBuffer bounds the recent anomalies kept for /anomalies
	// (default 256).
	AnomalyBuffer int

	// EstablishTimeout bounds every session handshake (default 10s).
	EstablishTimeout time.Duration
	// DialBackoffBase/Max/HealthyAfter parameterise the forwarder
	// redial schedule — the bgpd.Server dial loop monitord's collector
	// sessions run on too (defaults 500ms / 30s / 30s).
	DialBackoffBase  time.Duration
	DialBackoffMax   time.Duration
	DialHealthyAfter time.Duration
	// Seed derives forwarder backoff jitter (default 1).
	Seed int64

	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
	// Registry receives the router's fleet_* families (nil: private).
	Registry *obs.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 2
	}
	if out.ReadBatch <= 0 {
		out.ReadBatch = 64
	}
	if out.AlertBuffer <= 0 {
		out.AlertBuffer = 8192
	}
	if out.MergeInterval <= 0 {
		out.MergeInterval = 2 * time.Millisecond
	}
	if out.ForwardBuffer <= 0 {
		out.ForwardBuffer = 8192
	}
	if out.AnomalyBuffer <= 0 {
		out.AnomalyBuffer = 256
	}
	if out.EstablishTimeout <= 0 {
		out.EstablishTimeout = 10 * time.Second
	}
	if out.DialBackoffBase <= 0 {
		out.DialBackoffBase = 500 * time.Millisecond
	}
	if out.DialBackoffMax <= 0 {
		out.DialBackoffMax = 30 * time.Second
	}
	if out.DialHealthyAfter <= 0 {
		out.DialHealthyAfter = 30 * time.Second
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// sink is one shard's forwarding endpoint.
type sink interface {
	// register mirrors a router source into the shard (in-process).
	register(p *bgpd.Peer)
	// forward delivers one prefix-level update.
	forward(p *bgpd.Peer, t time.Time, prefix netip.Prefix, path []bgp.ASN)
	// quiesce waits (until deadline) for delivered work to be visible.
	quiesce(deadline time.Time) bool
}

// Router is a running fleet front-end. Create with New, stop with
// Shutdown.
type Router struct {
	cfg   Config
	table *watchTable
	met   *metrics

	sinks   []sink
	watched []int              // watched prefixes per shard, for /healthz
	shards  []*monitord.Daemon // in-process mode; nil entries otherwise
	regs    []*obs.Registry    // in-process shard registries
	remotes []*remoteSink      // remote mode; nil entries otherwise

	det    *defense.AnomalyDetector
	anomMu sync.Mutex
	anoms  []defense.Anomaly // bounded recent window

	mrg *merger

	srv *bgpd.Server // session front: listener, forwarder dialers, source registry
	api *monitord.HTTPServer

	shutOnce sync.Once
	shutErr  error
}

// New validates cfg, builds the shard fleet (boots in-process shard
// daemons or starts remote forwarders), binds the listeners, and starts
// the merger. The router runs until Shutdown.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Watched) == 0 {
		return nil, errors.New("fleet: Watched must name at least one prefix")
	}
	n := cfg.Shards
	if len(cfg.Remotes) > 0 {
		n = len(cfg.Remotes)
	}
	table, err := newWatchTable(cfg.Watched, n)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:   cfg,
		table: table,
		met:   newFleetMetrics(cfg.Registry, n),
		det:   defense.NewAnomalyDetector(cfg.Anomaly),
	}
	r.srv, err = bgpd.NewServer(bgpd.ServerConfig{
		Name: "fleet", Speaker: cfg.Speaker, Listen: cfg.ListenBGP,
		EstablishTimeout: cfg.EstablishTimeout, ReadBatch: cfg.ReadBatch,
		DialBackoffBase: cfg.DialBackoffBase, DialBackoffMax: cfg.DialBackoffMax,
		DialHealthyAfter: cfg.DialHealthyAfter, Seed: cfg.Seed, Logf: cfg.Logf,
		SessionsAccepted: r.met.sessionsAccepted, SessionsActive: r.met.sessionsActive,
		DroppedNoASPath: r.met.droppedNoPath,
		// Mirror every source into every shard inside the registry's
		// critical section — concurrent handshakes must not interleave
		// their per-shard registrations, or shard-local session ids would
		// diverge from router ids.
		OnRegister: func(p *bgpd.Peer) {
			for _, s := range r.sinks {
				s.register(p)
			}
		},
		NewSink: func(p *bgpd.Peer) bgpd.UpdateSink { return routeSink{r, p} },
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: BGP listener: %w", err)
	}
	if r.api, err = monitord.ListenHTTP(cfg.ListenHTTP); err != nil {
		r.srv.Shutdown()
		return nil, fmt.Errorf("fleet: HTTP listener: %w", err)
	}

	parts := Partition(cfg.Watched, n)
	for _, part := range parts {
		r.watched = append(r.watched, len(part))
	}
	srcs := make([]monitord.AlertSource, n)
	if len(cfg.Remotes) > 0 {
		r.remotes = make([]*remoteSink, n)
		for i, rem := range cfg.Remotes {
			if rem.BGPAddr == "" || rem.HTTPAddr == "" {
				r.shutdownPartial()
				return nil, fmt.Errorf("fleet: remote shard %d needs BGPAddr and HTTPAddr", i)
			}
			rs := newRemoteSink(r, i, rem)
			r.remotes[i] = rs
			r.sinks = append(r.sinks, rs)
			srcs[i] = &monitord.HTTPAlerts{Base: "http://" + rem.HTTPAddr}
			r.srv.Dial(rem.BGPAddr, "fleet-fwd-"+rs.shard.Name, r.met.redials[i], rs.run)
		}
	} else {
		r.shards = make([]*monitord.Daemon, n)
		r.regs = make([]*obs.Registry, n)
		r.remotes = make([]*remoteSink, n) // all nil; len used by collectors
		for i := 0; i < n; i++ {
			sc := cfg.ShardConfig
			sc.Watched = parts[i]
			sc.ListenBGP, sc.ListenHTTP = "", ""
			sc.Collectors = nil
			sc.Registry = obs.NewRegistry()
			sc.Logf = cfg.Logf
			if len(sc.Watched) == 0 {
				// monitord refuses an empty watchlist; an empty partition
				// (more shards than prefixes) still needs a live daemon so
				// shard indexes stay aligned. Watch an unroutable sentinel
				// the router will never forward to.
				sc.Watched = map[netip.Prefix]bgp.ASN{
					netip.MustParsePrefix("192.0.2.0/24"): 64496, // TEST-NET-1
				}
			}
			d, err := monitord.New(sc)
			if err != nil {
				r.shutdownPartial()
				return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
			}
			r.shards[i] = d
			r.regs[i] = sc.Registry
			r.sinks = append(r.sinks, inprocSink{d})
			srcs[i] = d
			r.met.shardUp[i].Set(1)
		}
	}
	r.met.registerCollectors(r)
	r.mrg = newMerger(r, srcs, cfg.AlertBuffer)
	go r.mrg.loop(cfg.MergeInterval)

	r.srv.Start()
	r.api.Serve(r.handler())
	if addr := r.BGPAddr(); addr != "" {
		cfg.Logf("fleet: BGP listening on %s (%d shards)", addr, n)
	}
	if addr := r.HTTPAddr(); addr != "" {
		cfg.Logf("fleet: HTTP listening on %s", addr)
	}
	return r, nil
}

// shutdownPartial tears down whatever New built before failing.
func (r *Router) shutdownPartial() {
	r.srv.Shutdown()
	for _, d := range r.shards {
		if d != nil {
			d.Shutdown(context.Background())
		}
	}
	r.api.Shutdown(context.Background())
}

// BGPAddr returns the bound BGP listener address ("" when disabled).
func (r *Router) BGPAddr() string { return r.srv.Addr() }

// HTTPAddr returns the bound HTTP listener address ("" when disabled).
func (r *Router) HTTPAddr() string { return r.api.Addr() }

// Shards returns how many shards sit behind the router.
func (r *Router) Shards() int { return len(r.sinks) }

// Alerts serves the merged stream under the single-daemon cursor
// contract (see monitord.Daemon.Alerts), including the ahead-cursor
// resync clamp. Every call first drains the shard rings, so alerts
// visible on a quiesced shard are visible here.
func (r *Router) Alerts(cursor uint64, max int) (alerts []monitord.SeqAlert, next uint64, dropped uint64) {
	return r.mrg.since(cursor, max)
}

// Anomalies returns the recent escalated anomalies (newest last) plus
// lifetime totals from the detectors.
func (r *Router) Anomalies() (recent []defense.Anomaly, observed uint64, escalated map[defense.AnomalyKind]uint64) {
	r.anomMu.Lock()
	recent = append([]defense.Anomaly(nil), r.anoms...)
	r.anomMu.Unlock()
	observed, escalated = r.det.Totals()
	return recent, observed, escalated
}

func (r *Router) recordAnomaly(an defense.Anomaly) {
	if int(an.Kind) >= 0 && int(an.Kind) < len(r.met.anomalies) {
		r.met.anomalies[an.Kind].Inc()
	}
	r.cfg.Logf("fleet: anomaly %s on %v score=%.2f (%d alerts in window)",
		an.Kind, an.Prefix, an.Score, an.Alerts)
	r.anomMu.Lock()
	r.anoms = append(r.anoms, an)
	if over := len(r.anoms) - r.cfg.AnomalyBuffer; over > 0 {
		r.anoms = append(r.anoms[:0], r.anoms[over:]...)
	}
	r.anomMu.Unlock()
}

// RegisterSource allocates a session id for an in-process update source
// (tests, simulation streams), mirroring it into every in-process shard
// so shard-local session ids match the router's.
func (r *Router) RegisterSource(name string, peer bgp.ASN) int {
	return r.srv.Register(name, peer, "local").ID
}

// Ingest feeds one update through the router as if received on the
// given source session: route to the owning shard or reject as
// unwatched. A nil path is a withdrawal.
func (r *Router) Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error {
	p, ok := r.srv.Peer(session)
	if !ok {
		return fmt.Errorf("fleet: unknown session %d", session)
	}
	r.route(p, t, prefix, path)
	return nil
}

// route is the per-update hot path: validate, consult the watch table,
// and forward to the owning shard or count the rejection.
func (r *Router) route(p *bgpd.Peer, t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	if !prefix.IsValid() || !prefix.Addr().Is4() {
		r.met.droppedNonIPv4.Inc()
		return
	}
	shard, ok := r.table.route(prefix)
	if !ok {
		r.met.unwatched.Inc()
		return
	}
	p.Updates.Add(1)
	r.met.forwarded[shard].Inc()
	r.sinks[shard].forward(p, t, prefix, path)
}

// routeSink routes one BGP session's updates as they are read; the
// router keeps no per-batch state.
type routeSink struct {
	r *Router
	p *bgpd.Peer
}

func (s routeSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	s.r.route(s.p, t, prefix, path)
}

func (routeSink) Flush(time.Time, int) {}

// WaitQuiesce blocks until every forwarded update is visible in shard
// state and the merged stream, or the timeout elapses.
func (r *Router) WaitQuiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	ok := true
	for _, s := range r.sinks {
		ok = s.quiesce(deadline) && ok
	}
	// Drain whatever the quiesced shards just appended.
	r.mrg.mu.Lock()
	r.mrg.pollLocked()
	r.mrg.mu.Unlock()
	return ok
}

// Shutdown gracefully stops the router: the session front stopped (no
// new sessions, every live session closed, forwarders drained),
// in-process shards shut down, the merger stopped after a final sweep,
// and the HTTP server stopped. It is idempotent; ctx bounds only the
// HTTP drain.
func (r *Router) Shutdown(ctx context.Context) error {
	r.shutOnce.Do(func() {
		r.srv.Shutdown()
		for _, d := range r.shards {
			if d != nil {
				r.shutErr = errors.Join(r.shutErr, d.Shutdown(ctx))
			}
		}
		// Final merge sweep happens inside mrg.shutdown — but only
		// in-process sources still answer; remote polls may fail (their
		// daemons are not ours to stop) and that is fine.
		r.mrg.shutdown()
		r.shutErr = errors.Join(r.shutErr, r.api.Shutdown(ctx))
		r.cfg.Logf("fleet: shutdown complete (%d alerts merged)", r.mrg.log.Total())
	})
	return r.shutErr
}
