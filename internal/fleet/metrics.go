package fleet

import (
	"strconv"
	"time"

	"quicksand/internal/defense"
	"quicksand/internal/obs"
)

// metrics holds the router's own fleet_* instrumentation. Shard-level
// monitord_* families are not mirrored here: the router's /metrics
// endpoint aggregates them live from every shard registry via the obs
// merger, so the fleet exposition is the union of fleet_* and the summed
// monitord_* families.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	forwarded      []*obs.Counter // per shard
	redials        *obs.Counter   // collector dial attempts that failed
	unwatched      *obs.Counter
	droppedNonIPv4 *obs.Counter
	droppedNoPath  *obs.Counter

	alertsMerged       *obs.Counter
	shardAlertsDropped *obs.Counter // shard-ring evictions seen by the merger
	alertsDropped      *obs.Counter // merged-ring evictions
	anomalies          []*obs.Counter

	sessionsAccepted *obs.Counter
	sessionsActive   *obs.Gauge
}

func newFleetMetrics(reg *obs.Registry, shards int) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &metrics{reg: reg, start: time.Now()}
	fwd := reg.CounterVec("fleet_updates_forwarded_total", "Updates forwarded to each shard by the watchlist router.", "shard")
	for i := 0; i < shards; i++ {
		m.forwarded = append(m.forwarded, fwd.With(strconv.Itoa(i)))
	}
	m.redials = reg.Counter("fleet_redials_total", "Failed collector dial attempts (each backs off).")
	m.unwatched = reg.Counter("fleet_updates_unwatched_total",
		"Updates dropped at the router because no watched prefix matches or covers them — the fleet's fast-reject path.")
	dropped := reg.CounterVec("fleet_updates_dropped_total", "Updates discarded before routing, by reason.", "reason")
	m.droppedNonIPv4 = dropped.With("non-ipv4")
	m.droppedNoPath = dropped.With("no-as-path")
	m.alertsMerged = reg.Counter("fleet_alerts_merged_total", "Alerts pulled off shard rings into the merged stream.")
	m.shardAlertsDropped = reg.Counter("fleet_shard_alerts_dropped_total",
		"Alerts a shard ring evicted before the merger could read them (lost to every fleet client).")
	m.alertsDropped = reg.Counter("fleet_alerts_dropped_total",
		"Alerts evicted from the merged ring before any client read them.")
	anoms := reg.CounterVec("fleet_anomalies_total", "Counter-RAPTOR anomalies escalated from the merged alert stream, by kind.", "kind")
	m.anomalies = []*obs.Counter{
		defense.AnomalyFrequency:  anoms.With(defense.AnomalyFrequency.String()),
		defense.AnomalyOriginFlap: anoms.With(defense.AnomalyOriginFlap.String()),
	}
	m.sessionsAccepted = reg.Counter("fleet_sessions_accepted_total", "BGP sessions ever established with the router.")
	m.sessionsActive = reg.Gauge("fleet_sessions_active", "BGP sessions currently established with the router.")
	reg.GaugeFunc("fleet_uptime_seconds", "Seconds since the router started.", func() float64 {
		return time.Since(m.start).Seconds()
	})
	return m
}

// registerCollectors wires exposition-time families reading router
// state; called once from New after the shards exist.
func (m *metrics) registerCollectors(r *Router) {
	m.reg.GaugeFunc("fleet_shards", "Number of shards behind the router.", func() float64 {
		return float64(len(r.shards))
	})
	m.reg.GaugeFunc("fleet_watched_prefixes", "Prefixes on the router's watchlist.", func() float64 {
		return float64(r.table.trie.Len())
	})
}
