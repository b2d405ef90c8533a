// Package fleet is `serve -fleet N`: one monitord.Daemon of N dispatcher
// shards behind a session front of its own, which drops every update no
// watched prefix covers before it reaches the daemon's RIB. What passes
// is exactly what defense.Monitor.Relevant admits — a watched prefix or a
// strict more-specific of one — so the fleet raises every alert the
// daemon alone would, on a RIB that holds only the watched routes.
//
// The front is the daemon's own kind (bgpd.Server for inbound peers and
// dialed collectors, monitord's archive reader), and forwarded updates
// take the daemon's run path (Daemon.Sink), so the fleet keeps no queue,
// ring or goroutine of its own. Alerts, /anomalies, /rib, /healthz and
// /metrics are the daemon's, over one registry that also carries the
// fleet_* families; /healthz counts sessions_active on the fleet's front.
package fleet

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/monitord"
	"quicksand/internal/obs"
)

// Config is the daemon's: Shards is the dispatcher width, and the
// listeners and collectors are the fleet's front. Watched must be IPv4.
type Config = monitord.Config

// Router is a running fleet: a session front and filter in front of one
// daemon. Create with New, stop with Shutdown.
type Router struct {
	d   *monitord.Daemon
	srv *bgpd.Server // session front: listener, collector dialers, source registry
	met *metrics
}

// New validates cfg, boots the daemon (which serves the HTTP API), binds
// the BGP listener, and starts the collector dialers. The router runs
// until Shutdown.
func New(cfg Config) (*Router, error) {
	for p := range cfg.Watched {
		if !p.IsValid() || !p.Addr().Is4() {
			return nil, fmt.Errorf("fleet: watched prefix %v is not IPv4", p)
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	dc := cfg
	dc.ListenBGP, dc.Collectors = "", nil // the sessions are the router's
	d, err := monitord.New(dc)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	r := &Router{d: d, met: newMetrics(cfg.Registry)}
	r.srv, err = bgpd.NewServer(bgpd.ServerConfig{
		Name: "fleet", Speaker: cfg.Speaker, Listen: cfg.ListenBGP,
		ReadBatch: cfg.ReadBatch, DialBackoffBase: cfg.DialBackoffBase,
		Seed: cfg.Seed, Logf: cfg.Logf,
		SessionsAccepted: r.met.sessionsAccepted, SessionsActive: r.met.sessionsActive,
		DroppedNoASPath: r.met.droppedNoPath,
		// Under the registry lock, so the daemon hands out ids in the
		// router's order.
		OnRegister: r.mirror,
		NewSink:    r.sink,
	})
	if err != nil {
		d.Shutdown(context.Background())
		return nil, fmt.Errorf("fleet: BGP listener: %w", err)
	}
	// The daemon's row of a closed fleet session stays open, so /healthz
	// reports the front's own count.
	d.ReportSessions(r.met.sessionsActive)
	r.met.registerCollectors(r, len(cfg.Watched))
	r.srv.Start()
	for _, addr := range cfg.Collectors {
		r.srv.Collect(addr, r.met.redials)
	}
	if addr := r.BGPAddr(); addr != "" {
		cfg.Logf("fleet: BGP listening on %s (%d shards)", addr, len(d.Intake()))
	}
	return r, nil
}

// mirror registers a new router source with the daemon. Nothing else
// registers there, so the daemon hands out the router's id, and alerts
// carry the same Session as a lone daemon's would.
func (r *Router) mirror(p *bgpd.Peer) {
	if id := r.d.RegisterSource(p.Remote, p.PeerAS); id != p.ID {
		panic("fleet: daemon session id " + strconv.Itoa(id) + " diverged from router id " + strconv.Itoa(p.ID))
	}
}

// BGPAddr returns the bound BGP listener address ("" when disabled).
func (r *Router) BGPAddr() string { return r.srv.Addr() }

// HTTPAddr returns the daemon's bound HTTP address ("" when disabled).
func (r *Router) HTTPAddr() string { return r.d.HTTPAddr() }

// Alerts is the daemon's alert log (see monitord.Daemon.Alerts).
func (r *Router) Alerts(cursor uint64, max int) ([]monitord.SeqAlert, uint64, uint64) {
	return r.d.Alerts(cursor, max)
}

// WaitQuiesce reports whether the daemon absorbed every admitted update
// within timeout.
func (r *Router) WaitQuiesce(timeout time.Duration) bool { return r.d.WaitQuiesce(timeout) }

// RegisterSource allocates a session id for an in-process update source
// (MRT replay, simulation streams, tests).
func (r *Router) RegisterSource(name string, peer bgp.ASN) int {
	return r.srv.Register(name, peer).ID
}

// admit is the per-update filter: it counts and drops a non-IPv4 update
// or one the daemon's monitor calls irrelevant, and reports whether the
// update goes on. It allocates nothing.
func (r *Router) admit(prefix netip.Prefix) bool {
	switch {
	case !prefix.IsValid() || !prefix.Addr().Is4():
		r.met.droppedNonIPv4.Inc()
	case !r.d.Relevant(prefix):
		r.met.unwatched.Inc()
	default:
		return true
	}
	return false
}

// Ingest feeds one update through the filter as if received on the given
// source session. A nil path is a withdrawal; an admitted path is handed
// over to the daemon (see monitord.Front).
func (r *Router) Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error {
	if _, ok := r.srv.Peer(session); !ok {
		return fmt.Errorf("fleet: unknown session %d", session)
	}
	if r.admit(prefix) {
		return r.d.Ingest(session, t, prefix, path)
	}
	return nil
}

// sink is the bgpd.ServerConfig.NewSink of the fleet's sessions.
func (r *Router) sink(p *bgpd.Peer) bgpd.UpdateSink {
	return filterSink{r, p, r.d.Sink(p.ID)}
}

// filterSink is one BGP session's filter in front of the daemon's run
// path for the same session. It counts what it admits on the session's
// row, which is what tells Collect that a session delivered.
type filterSink struct {
	r    *Router
	p    *bgpd.Peer
	next bgpd.UpdateSink
}

func (s filterSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	if s.r.admit(prefix) {
		s.p.Updates.Add(1)
		s.next.Update(t, prefix, path)
	}
}

func (s filterSink) Flush(start time.Time, n int) { s.next.Flush(start, n) }

// IngestMRT replays an MRT archive through the filter (see
// monitord.ReadMRT), booking its records on the daemon.
func (r *Router) IngestMRT(rd io.Reader, label string) (*monitord.MRTStats, error) {
	stats, err := monitord.ReadMRT(r, rd, label)
	r.d.CountMRTRecords(stats.Records)
	r.met.droppedNoPath.Add(uint64(stats.NoASPath))
	return stats, err
}

// Shutdown stops the session front (no new sessions or dials, every live
// session closed), then the daemon. It is idempotent; ctx bounds only the
// HTTP drain.
func (r *Router) Shutdown(ctx context.Context) error {
	r.srv.Shutdown()
	return r.d.Shutdown(ctx)
}
