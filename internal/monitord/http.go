package monitord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/defense"
)

// This file is the one HTTP surface a single daemon and a fleet router
// both serve from: the /alerts wire format (encode here, decode in
// HTTPAlerts), the /alerts handler, the read-only and JSON helpers, and
// the listen/serve/drain lifecycle.

// alertJSON is the wire shape of one alert on /alerts.
type alertJSON struct {
	Seq        uint64    `json:"seq"`
	Time       time.Time `json:"time"`
	Session    int       `json:"session"`
	Prefix     string    `json:"prefix"`
	Kind       string    `json:"kind"`
	ObservedAS uint32    `json:"observed_as"`
}

// alertsResponse is the /alerts payload: alerts since the cursor, the
// cursor to pass on the next poll, and how many alerts were evicted
// unseen (a too-slow client's signal to resync).
type alertsResponse struct {
	Alerts  []alertJSON `json:"alerts"`
	Next    uint64      `json:"next"`
	Dropped uint64      `json:"dropped"`
}

func alertToJSON(a SeqAlert) alertJSON {
	return alertJSON{
		Seq: a.Seq, Time: a.Time, Session: a.Session,
		Prefix: a.Prefix.String(), Kind: a.Kind.String(),
		ObservedAS: uint32(a.Observed),
	}
}

// alert inverts alertToJSON. An unparsable prefix or a kind string no
// defense.AlertKind renders as is an error, never a default.
func (j alertJSON) alert() (SeqAlert, error) {
	prefix, err := netip.ParsePrefix(j.Prefix)
	if err != nil {
		return SeqAlert{}, err
	}
	for kind := defense.AlertOriginChange; kind <= defense.AlertNewUpstream; kind++ {
		if kind.String() == j.Kind {
			return SeqAlert{Seq: j.Seq, Alert: defense.Alert{
				Time: j.Time, Session: j.Session, Prefix: prefix,
				Kind: kind, Observed: bgp.ASN(j.ObservedAS),
			}}, nil
		}
	}
	return SeqAlert{}, fmt.Errorf("unknown alert kind %q", j.Kind)
}

// routeJSON is one session's path on /rib.
type routeJSON struct {
	Session int       `json:"session"`
	Path    []uint32  `json:"path"`
	Updated time.Time `json:"updated"`
}

// ribResponse is the /rib payload for one prefix.
type ribResponse struct {
	Prefix string      `json:"prefix"`
	Routes []routeJSON `json:"routes"`
	Best   *routeJSON  `json:"best,omitempty"`
}

// healthResponse is the /healthz payload.
type healthResponse struct {
	Status         string  `json:"status"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	SessionsActive int64   `json:"sessions_active"`
	Updates        uint64  `json:"updates"`
	RIBPrefixes    int     `json:"rib_prefixes"`
	Alerts         uint64  `json:"alerts"`
	QueueDepth     int     `json:"queue_depth"`
	WatchedPrefix  int     `json:"watched_prefixes"`
}

// MaxAlertsPerRequest is the server-side ceiling on the /alerts ?max=
// parameter: larger requests are clamped, not refused, so a greedy (or
// hostile) client cannot force an O(max) allocation per request. Slow
// consumers page with the returned cursor instead.
const MaxAlertsPerRequest = 10000

func (d *Daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/alerts", GetOnly(AlertsHandler(d)))
	mux.HandleFunc("/rib", GetOnly(d.handleRIB))
	mux.HandleFunc("/healthz", GetOnly(d.handleHealthz))
	mux.HandleFunc("/metrics", GetOnly(d.handleMetrics))
	return mux
}

// GetOnly rejects every method except GET (and HEAD, which net/http
// serves from the GET handler) with 405 — the API is read-only.
func GetOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// WriteJSON marshals v before touching the ResponseWriter so an encode
// failure can still turn into a 500 instead of a silently truncated 200
// (streaming json.Encoder writes the status line on its first byte).
func WriteJSON(w http.ResponseWriter, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

// AlertSource is anything that serves the alert-cursor contract of
// Daemon.Alerts (notably the ahead-cursor resync): a daemon, a fleet
// router, or either one's /alerts endpoint through HTTPAlerts.
type AlertSource interface {
	Alerts(cursor uint64, max int) (alerts []SeqAlert, next uint64, dropped uint64)
}

// AlertsHandler serves GET /alerts?since=N&max=M over src: 400 on a
// malformed parameter, a default page of 1000, and max clamped to
// MaxAlertsPerRequest.
func AlertsHandler(src AlertSource) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var cursor uint64
		if s := r.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
			cursor = v
		}
		max := 1000
		if s := r.URL.Query().Get("max"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "bad max", http.StatusBadRequest)
				return
			}
			max = min(v, MaxAlertsPerRequest)
		}
		alerts, next, dropped := src.Alerts(cursor, max)
		resp := alertsResponse{Alerts: make([]alertJSON, 0, len(alerts)), Next: next, Dropped: dropped}
		for _, a := range alerts {
			resp.Alerts = append(resp.Alerts, alertToJSON(a))
		}
		WriteJSON(w, resp)
	}
}

func routeToJSON(rt Route) routeJSON {
	path := make([]uint32, len(rt.Path))
	for i, a := range rt.Path {
		path[i] = uint32(a)
	}
	return routeJSON{Session: rt.Session, Path: path, Updated: rt.Updated}
}

// handleRIB serves GET /rib?prefix=10.0.0.0/16 (exact lookup) and
// GET /rib?addr=10.0.1.2 (longest-prefix match).
func (d *Daemon) handleRIB(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var entry *RIBEntry
	var ok bool
	switch {
	case q.Get("prefix") != "":
		p, err := netip.ParsePrefix(q.Get("prefix"))
		if err != nil {
			http.Error(w, "bad prefix: "+err.Error(), http.StatusBadRequest)
			return
		}
		entry, ok = d.rib.Lookup(p)
	case q.Get("addr") != "":
		a, err := netip.ParseAddr(q.Get("addr"))
		if err != nil {
			http.Error(w, "bad addr: "+err.Error(), http.StatusBadRequest)
			return
		}
		entry, ok = d.rib.LookupAddr(a)
	default:
		http.Error(w, "need ?prefix= or ?addr=", http.StatusBadRequest)
		return
	}
	if !ok {
		http.Error(w, "no route", http.StatusNotFound)
		return
	}
	resp := ribResponse{Prefix: entry.Prefix.String()}
	for _, rt := range entry.Routes {
		resp.Routes = append(resp.Routes, routeToJSON(rt))
	}
	if best, ok := entry.Best(); ok {
		bj := routeToJSON(best)
		resp.Best = &bj
	}
	WriteJSON(w, resp)
}

// handleHealthz serves GET /healthz.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	depth := 0
	for i := range d.shards {
		depth += int(d.shards[i].depth())
	}
	WriteJSON(w, healthResponse{
		Status:         "ok",
		UptimeSeconds:  time.Since(d.met.start).Seconds(),
		SessionsActive: int64(d.met.sessionsActive.Value()),
		Updates:        d.met.updates.Value(),
		RIBPrefixes:    d.rib.Size(),
		Alerts:         d.rng.Total(),
		QueueDepth:     depth,
		WatchedPrefix:  len(d.cfg.Watched),
	})
}

// handleMetrics serves GET /metrics in Prometheus text exposition. The
// daemon-state families (RIB size, queue depths, session rows) are
// sampled by the collectors registered in registerCollectors.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.met.writePrometheus(w)
}

// HTTPServer is the listen/serve/drain lifecycle of the HTTP API. A nil
// *HTTPServer is a disabled API: every method is a no-op.
type HTTPServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan error // Serve's result; nil until Serve
}

// ListenHTTP binds addr; "" returns a nil (disabled) server. Nothing is
// served until Serve.
func ListenHTTP(addr string) (*HTTPServer, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &HTTPServer{ln: ln}, nil
}

// Addr returns the bound address ("" when disabled).
func (s *HTTPServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve starts serving h on the bound listener.
func (s *HTTPServer) Serve(h http.Handler) {
	if s == nil {
		return
	}
	s.srv = &http.Server{Handler: h}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(s.ln) }()
}

// Shutdown drains in-flight requests (bounded by ctx) and stops the
// server, reporting the first failure of either.
func (s *HTTPServer) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	if s.srv == nil {
		return s.ln.Close()
	}
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	return err
}
