package fleet

import (
	"strconv"
	"time"

	"quicksand/internal/obs"
)

// metrics holds the router's fleet_* families, on the registry the
// daemon's monitord_* families share.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	redials        *obs.Counter // collector dial attempts that failed
	unwatched      *obs.Counter
	droppedNonIPv4 *obs.Counter
	droppedNoPath  *obs.Counter

	sessionsAccepted *obs.Counter
	sessionsActive   *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{reg: reg, start: time.Now()}
	m.redials = reg.Counter("fleet_redials_total", "Failed collector dial attempts (each backs off).")
	m.unwatched = reg.Counter("fleet_updates_unwatched_total",
		"Updates dropped at the router because no watched prefix matches or covers them — the fleet's fast-reject path.")
	dropped := reg.CounterVec("fleet_updates_dropped_total", "Updates discarded before routing, by reason.", "reason")
	m.droppedNonIPv4 = dropped.With("non-ipv4")
	m.droppedNoPath = dropped.With("no-as-path")
	m.sessionsAccepted = reg.Counter("fleet_sessions_accepted_total", "BGP sessions ever established with the router.")
	m.sessionsActive = reg.Gauge("fleet_sessions_active", "BGP sessions currently established with the router.")
	reg.GaugeFunc("fleet_uptime_seconds", "Seconds since the router started.", func() float64 {
		return time.Since(m.start).Seconds()
	})
	return m
}

// registerCollectors wires the exposition-time families that read the
// daemon; called once from New after it exists.
func (m *metrics) registerCollectors(r *Router, watched int) {
	m.reg.Collect("fleet_updates_forwarded_total", "Updates forwarded to each shard by the watchlist router.",
		obs.KindCounter, []string{"shard"}, func(emit obs.Emit) {
			for i, n := range r.d.Intake() {
				emit([]string{strconv.Itoa(i)}, float64(n))
			}
		})
	m.reg.GaugeFunc("fleet_shards", "Number of shards behind the router.", func() float64 {
		return float64(len(r.d.Intake()))
	})
	m.reg.GaugeFunc("fleet_watched_prefixes", "Prefixes on the router's watchlist.", func() float64 {
		return float64(watched)
	})
}
