package fleet

import (
	"net/http"
	"net/netip"
	"strconv"
	"time"

	"quicksand/internal/monitord"
	"quicksand/internal/obs"
)

// The fleet router serves the same read-only HTTP API as a single
// monitord, from the same code: monitord's /alerts handler over the
// merged stream and, for /rib, the owning shard's own handler — so
// single-daemon clients (pollers, the bench/ load driver, curl muscle
// memory) work against a fleet unchanged. The router adds the
// fleet-only /anomalies endpoint, a /healthz that aggregates per-shard
// rows, and a /metrics that merges every shard's exposition.

// anomalyJSON is the wire shape of one escalated anomaly.
type anomalyJSON struct {
	Time    time.Time `json:"time"`
	Prefix  string    `json:"prefix"`
	Kind    string    `json:"kind"`
	Score   float64   `json:"score"`
	Alerts  int       `json:"alerts"`
	Origins []uint32  `json:"origins,omitempty"`
}

type anomaliesResponse struct {
	Anomalies []anomalyJSON     `json:"anomalies"`
	Observed  uint64            `json:"alerts_observed"`
	Escalated map[string]uint64 `json:"escalated"`
}

// shardHealth is one shard's row in the fleet /healthz payload.
type shardHealth struct {
	Shard     int    `json:"shard"`
	Name      string `json:"name"`
	Watched   int    `json:"watched_prefixes"`
	Forwarded uint64 `json:"forwarded"`
	Cursor    uint64 `json:"alert_cursor"`
}

type fleetHealthResponse struct {
	Status         string        `json:"status"`
	UptimeSeconds  float64       `json:"uptime_seconds"`
	Shards         int           `json:"shards"`
	SessionsActive int64         `json:"sessions_active"`
	AlertsMerged   uint64        `json:"alerts_merged"`
	Watched        int           `json:"watched_prefixes"`
	ShardRows      []shardHealth `json:"shard_health"`
}

func (r *Router) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/alerts", monitord.GetOnly(monitord.AlertsHandler(r)))
	mux.HandleFunc("/anomalies", monitord.GetOnly(r.handleAnomalies))
	mux.HandleFunc("/rib", monitord.GetOnly(r.handleRIB))
	mux.HandleFunc("/healthz", monitord.GetOnly(r.handleHealthz))
	mux.HandleFunc("/metrics", monitord.GetOnly(r.handleMetrics))
	return mux
}

// handleAnomalies serves GET /anomalies: the recent escalations plus
// detector lifetime totals.
func (r *Router) handleAnomalies(w http.ResponseWriter, req *http.Request) {
	recent, observed, escalated := r.Anomalies()
	resp := anomaliesResponse{
		Anomalies: make([]anomalyJSON, 0, len(recent)),
		Observed:  observed,
		Escalated: make(map[string]uint64, len(escalated)),
	}
	for _, an := range recent {
		aj := anomalyJSON{
			Time: an.Time, Prefix: an.Prefix.String(), Kind: an.Kind.String(),
			Score: an.Score, Alerts: an.Alerts,
		}
		for _, o := range an.Origins {
			aj.Origins = append(aj.Origins, uint32(o))
		}
		resp.Anomalies = append(resp.Anomalies, aj)
	}
	for k, v := range escalated {
		resp.Escalated[k.String()] = v
	}
	monitord.WriteJSON(w, resp)
}

// handleRIB serves GET /rib?prefix=… or ?addr=… by routing the query to
// the shard owning the covering watched prefix — the shard whose RIB
// holds every route for it — and letting that shard's own handler
// answer. Queries outside the watchlist are 404: no shard ever saw those
// updates, by design.
func (r *Router) handleRIB(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	var shard int
	var ok bool
	switch {
	case q.Get("prefix") != "":
		p, err := netip.ParsePrefix(q.Get("prefix"))
		if err != nil {
			http.Error(w, "bad prefix: "+err.Error(), http.StatusBadRequest)
			return
		}
		if p.Addr().Is4() {
			shard, ok = r.table.route(p)
		}
	case q.Get("addr") != "":
		a, err := netip.ParseAddr(q.Get("addr"))
		if err != nil {
			http.Error(w, "bad addr: "+err.Error(), http.StatusBadRequest)
			return
		}
		if a.Is4() {
			shard, ok = r.table.routeAddr(a)
		}
	default:
		http.Error(w, "need ?prefix= or ?addr=", http.StatusBadRequest)
		return
	}
	if !ok {
		http.Error(w, "not watched", http.StatusNotFound)
		return
	}
	r.shards[shard].Handler().ServeHTTP(w, req)
}

// handleHealthz serves GET /healthz with fleet-level status plus one
// row per shard.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	cursors := r.mrg.shardCursors()
	resp := fleetHealthResponse{
		Status:         "ok",
		UptimeSeconds:  time.Since(r.met.start).Seconds(),
		Shards:         len(r.shards),
		SessionsActive: int64(r.met.sessionsActive.Value()),
		AlertsMerged:   r.met.alertsMerged.Value(),
		Watched:        len(r.cfg.Watched),
	}
	for i := range r.shards {
		resp.ShardRows = append(resp.ShardRows, shardHealth{
			Shard:     i,
			Name:      "shard" + strconv.Itoa(i),
			Watched:   r.watched[i],
			Forwarded: r.met.forwarded[i].Value(),
			Cursor:    cursors[i],
		})
	}
	monitord.WriteJSON(w, resp)
}

// handleMetrics serves GET /metrics: the router's fleet_* families
// merged with a snapshot of every shard registry's monitord_* families
// through the obs merge layer, so one exposition describes the whole
// fleet.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	snaps := make([]*obs.Snapshot, 0, len(r.shards)+1)
	own, err := obs.SnapshotRegistry(r.met.reg)
	if err != nil {
		http.Error(w, "snapshot: "+err.Error(), http.StatusInternalServerError)
		return
	}
	snaps = append(snaps, own)
	for _, reg := range r.regs {
		s, err := obs.SnapshotRegistry(reg)
		if err != nil {
			http.Error(w, "shard snapshot: "+err.Error(), http.StatusInternalServerError)
			return
		}
		snaps = append(snaps, s)
	}
	merged, err := obs.MergeSnapshots(snaps...)
	if err != nil {
		http.Error(w, "merge: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	merged.WritePrometheus(w)
}
