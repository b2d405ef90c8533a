// Package fleet shards the monitord watchlist horizontally: a router
// hash-partitions the Tor-prefix watchlist across N in-process monitord
// instances and forwards each UPDATE only to the shard owning a matching
// watched prefix. Routing is longest-prefix-aware — a *more-specific*
// hijack of a watched prefix reaches the shard owning the covering
// prefix, the case naive prefix-hashing misroutes — and everything else
// is rejected at the router without ever touching a shard pipeline, which
// is where the fleet's throughput win comes from: under real load almost
// all traffic is unwatched background churn, and the PR 9 stage
// histograms show the single daemon spending its saturation budget
// dispatching exactly that traffic.
//
// The router is a second user of the service front a single daemon runs
// on — bgpd.Server for the session lifecycle (inbound peers and dialed
// collectors), monitord's alert log, archive reader and HTTP surface — so
// it is a monitord.Front like the daemon and exposes the same API:
// /alerts serves a merged stream with one monotonic cursor backed by a
// vector of per-shard cursors, /healthz aggregates shard health, /metrics
// merges the fleet_* families with every shard's monitord_* families via
// the obs merger, and /rib is answered by the owning shard. On the merged
// stream, Counter-RAPTOR-style detectors (defense.AnomalyDetector)
// escalate raw alerts to scored anomalies served on /anomalies.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/defense"
	"quicksand/internal/monitord"
	"quicksand/internal/obs"
)

// Config parameterises the router.
type Config struct {
	// Watched maps each monitored prefix to its legitimate origin AS
	// (required, non-empty, IPv4 only). The router partitions it across
	// the shards with Partition.
	Watched map[netip.Prefix]bgp.ASN

	// Shards is the number of in-process monitord shards to run
	// (default 2).
	Shards int

	// ShardConfig is the template for the shard daemons. The router
	// overrides Watched (the shard's partition), the listeners and
	// Collectors (shards serve no BGP or HTTP and dial nobody: sessions
	// are the router's) and Registry (one private registry per shard,
	// aggregated by the router's /metrics); every other knob — pipeline
	// width, alert buffer, learning window, latency instrumentation —
	// passes through to each shard.
	ShardConfig monitord.Config

	// Speaker is the router's BGP identity for inbound and outbound
	// sessions.
	Speaker bgpd.Config
	// ListenBGP accepts inbound BGP sessions ("" disables).
	ListenBGP string
	// ListenHTTP serves the fleet HTTP API ("" disables).
	ListenHTTP string
	// Collectors lists remote BGP speakers to dial and keep sessions
	// with, on the session front's redial schedule; their updates are
	// routed exactly like an inbound peer's.
	Collectors []string

	// AlertBuffer is the merged alert ring capacity (default 8192).
	AlertBuffer int
	// MergeInterval is the shard-ring poll period (default 2ms).
	MergeInterval time.Duration

	// Seed derives collector backoff jitter (zero: the session front's
	// default).
	Seed int64

	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
	// Registry receives the router's fleet_* families (nil: private).
	Registry *obs.Registry
}

// anomalyBuffer bounds the recent anomalies kept for /anomalies.
const anomalyBuffer = 256

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 2
	}
	if out.AlertBuffer <= 0 {
		out.AlertBuffer = 8192
	}
	if out.MergeInterval <= 0 {
		out.MergeInterval = 2 * time.Millisecond
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Router is a running fleet front-end. Create with New, stop with
// Shutdown.
type Router struct {
	cfg   Config
	table *watchTable
	met   *metrics

	shards  []*monitord.Daemon
	regs    []*obs.Registry // one per shard, merged by /metrics
	watched []int           // watched prefixes per shard, for /healthz

	det    *defense.AnomalyDetector
	anomMu sync.Mutex
	anoms  []defense.Anomaly // bounded recent window

	mrg *merger

	srv *bgpd.Server // session front: listener, collector dialers, source registry
	api *monitord.HTTPServer

	shutOnce sync.Once
	shutErr  error
}

// New validates cfg, boots the shard daemons, binds the listeners, and
// starts the merger and the collector dialers. The router runs until
// Shutdown.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Watched) == 0 {
		return nil, errors.New("fleet: Watched must name at least one prefix")
	}
	n := cfg.Shards
	table, err := newWatchTable(cfg.Watched, n)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:   cfg,
		table: table,
		met:   newFleetMetrics(cfg.Registry, n),
		det:   defense.NewAnomalyDetector(defense.AnomalyConfig{}),
	}
	r.srv, err = bgpd.NewServer(bgpd.ServerConfig{
		Name: "fleet", Speaker: cfg.Speaker, Listen: cfg.ListenBGP,
		Seed: cfg.Seed, Logf: cfg.Logf,
		SessionsAccepted: r.met.sessionsAccepted, SessionsActive: r.met.sessionsActive,
		DroppedNoASPath: r.met.droppedNoPath,
		// Mirror every source into every shard inside the registry's
		// critical section — concurrent handshakes must not interleave
		// their per-shard registrations, or shard-local session ids would
		// diverge from router ids.
		OnRegister: r.mirror,
		NewSink:    func(p *bgpd.Peer) bgpd.UpdateSink { return routeSink{r, p} },
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: BGP listener: %w", err)
	}
	if r.api, err = monitord.ListenHTTP(cfg.ListenHTTP); err != nil {
		r.srv.Shutdown()
		return nil, fmt.Errorf("fleet: HTTP listener: %w", err)
	}

	for i, part := range Partition(cfg.Watched, n) {
		r.watched = append(r.watched, len(part))
		sc := cfg.ShardConfig
		sc.Watched = part
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
		r.shards = append(r.shards, d)
		r.regs = append(r.regs, sc.Registry)
	}
	r.met.registerCollectors(r)
	r.mrg = newMerger(r, cfg.AlertBuffer)
	go r.mrg.loop(cfg.MergeInterval)

	r.srv.Start()
	for _, addr := range cfg.Collectors {
		r.srv.Collect(addr, r.met.redials)
	}
	r.api.Serve(r.handler())
	if addr := r.BGPAddr(); addr != "" {
		cfg.Logf("fleet: BGP listening on %s (%d shards)", addr, n)
	}
	if addr := r.HTTPAddr(); addr != "" {
		cfg.Logf("fleet: HTTP listening on %s", addr)
	}
	return r, nil
}

// mirror registers a new router source in every shard. The router
// registers every source in every shard in id order and nothing else
// registers with a shard, so each shard hands out the router's id — which
// is what makes fleet alerts carry the same Session as a single daemon's
// would.
func (r *Router) mirror(p *bgpd.Peer) {
	for _, d := range r.shards {
		if id := d.RegisterSource(p.Remote, p.PeerAS); id != p.ID {
			panic("fleet: shard session id " + strconv.Itoa(id) + " diverged from router id " + strconv.Itoa(p.ID))
		}
	}
}

// shutdownPartial tears down whatever New built before failing.
func (r *Router) shutdownPartial() {
	r.srv.Shutdown()
	for _, d := range r.shards {
		d.Shutdown(context.Background())
	}
	r.api.Shutdown(context.Background())
}

// BGPAddr returns the bound BGP listener address ("" when disabled).
func (r *Router) BGPAddr() string { return r.srv.Addr() }

// HTTPAddr returns the bound HTTP listener address ("" when disabled).
func (r *Router) HTTPAddr() string { return r.api.Addr() }

// Shards returns how many shards sit behind the router.
func (r *Router) Shards() int { return len(r.shards) }

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
	if over := len(r.anoms) - anomalyBuffer; over > 0 {
		r.anoms = append(r.anoms[:0], r.anoms[over:]...)
	}
	r.anomMu.Unlock()
}

// RegisterSource allocates a session id for an in-process update source
// (MRT replay, simulation streams, tests), mirroring it into every shard
// so shard-local session ids match the router's.
func (r *Router) RegisterSource(name string, peer bgp.ASN) int {
	return r.srv.Register(name, peer).ID
}

// Ingest feeds one update through the router as if received on the
// given source session: route to the owning shard or reject as
// unwatched. A nil path is a withdrawal; a forwarded path is handed over
// to the shard (see monitord.Front).
func (r *Router) Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error {
	p, ok := r.srv.Peer(session)
	if !ok {
		return fmt.Errorf("fleet: unknown session %d", session)
	}
	if d := r.route(p, prefix); d != nil {
		_ = d.Ingest(p.ID, t, prefix, path)
	}
	return nil
}

// route is the per-update hot path: validate, consult the watch table,
// and return the owning shard (counted as forwarded) or nil (the
// rejection counted). The caller forwards straight into the shard's
// ingest path, backpressured by its bounded queues; the shard takes its
// own receive stamp, so t stays a semantic time (archives pass through
// here too), and it knows every router id (mirror), so Ingest's
// unknown-session error cannot occur.
func (r *Router) route(p *bgpd.Peer, prefix netip.Prefix) *monitord.Daemon {
	if !prefix.IsValid() || !prefix.Addr().Is4() {
		r.met.droppedNonIPv4.Inc()
		return nil
	}
	shard, ok := r.table.route(prefix)
	if !ok {
		r.met.unwatched.Inc()
		return nil
	}
	p.Updates.Add(1)
	r.met.forwarded[shard].Inc()
	return r.shards[shard]
}

// routeSink routes one BGP session's updates as they are read; the
// router keeps no per-batch state. The session front only lends the
// path, so the forward arm copies it for the shard's queue; the reject
// arm, most of the traffic, allocates nothing.
type routeSink struct {
	r *Router
	p *bgpd.Peer
}

func (s routeSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	if d := s.r.route(s.p, prefix); d != nil {
		_ = d.Ingest(s.p.ID, t, prefix, slices.Clone(path))
	}
}

func (routeSink) Flush(time.Time, int) {}

// IngestMRT replays an MRT archive through the router (see
// monitord.ReadMRT): every archived update is routed like a live one.
func (r *Router) IngestMRT(rd io.Reader, label string) (*monitord.MRTStats, error) {
	stats, err := monitord.ReadMRT(r, rd, label)
	r.met.droppedNoPath.Add(uint64(stats.NoASPath))
	return stats, err
}

// WaitQuiesce blocks until every forwarded update is visible in shard
// state and the merged stream, or the timeout elapses.
func (r *Router) WaitQuiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	ok := true
	for _, d := range r.shards {
		ok = d.WaitQuiesce(time.Until(deadline)) && ok
	}
	// Drain whatever the quiesced shards just appended.
	r.mrg.mu.Lock()
	r.mrg.pollLocked()
	r.mrg.mu.Unlock()
	return ok
}

// Shutdown gracefully stops the router: the session front stopped (no
// new sessions or dials, every live session closed), the shards shut
// down, the merger stopped after a final sweep, and the HTTP server
// stopped. It is idempotent; ctx bounds only the HTTP drain.
func (r *Router) Shutdown(ctx context.Context) error {
	r.shutOnce.Do(func() {
		r.srv.Shutdown()
		for _, d := range r.shards {
			r.shutErr = errors.Join(r.shutErr, d.Shutdown(ctx))
		}
		r.mrg.shutdown() // takes a final merge sweep
		r.shutErr = errors.Join(r.shutErr, r.api.Shutdown(ctx))
		r.cfg.Logf("fleet: shutdown complete (%d alerts merged)", r.mrg.log.Total())
	})
	return r.shutErr
}
