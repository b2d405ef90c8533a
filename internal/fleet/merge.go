package fleet

import (
	"sync"
	"time"

	"quicksand/internal/monitord"
)

// merger drains every shard's alert ring into the merged log — a
// monitord.AlertLog, so the alerts are re-sequenced into one monotonic
// stream that fleet clients poll exactly like single-daemon clients,
// ahead-cursor resync included — holding one cursor per shard: the
// fleet's vector cursor. Alerts from one
// shard stay in shard order (which is per-prefix order, since a prefix
// is owned by exactly one shard); interleaving across shards follows
// poll order. Each merged alert also feeds the Counter-RAPTOR anomaly
// detectors, whose per-prefix analytics are deterministic for exactly
// the same reason.
type merger struct {
	r       *Router
	mu      sync.Mutex
	cursors []uint64 // one per r.shards entry
	log     *monitord.AlertLog
	stop    chan struct{}
	done    chan struct{}
}

func newMerger(r *Router, capacity int) *merger {
	return &merger{
		r:       r,
		cursors: make([]uint64, len(r.shards)),
		log:     monitord.NewAlertLog(capacity, r.met.alertsDropped),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func (m *merger) loop(interval time.Duration) {
	defer close(m.done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.mu.Lock()
			m.pollLocked()
			m.mu.Unlock()
		}
	}
}

// pollLocked advances every shard cursor, appending new alerts to the
// merged log and running the anomaly analytics. Callers hold m.mu.
func (m *merger) pollLocked() {
	for i, d := range m.r.shards {
		alerts, next, dropped := d.Alerts(m.cursors[i], 0)
		m.cursors[i] = next
		if dropped > 0 {
			m.r.met.shardAlertsDropped.Add(dropped)
		}
		for _, a := range alerts {
			m.log.Append(a.Alert)
			m.r.met.alertsMerged.Inc()
			for _, an := range m.r.det.Observe(a.Alert) {
				m.r.recordAnomaly(an)
			}
		}
	}
}

// since polls every shard once, then reads the merged log — so a
// client that arrives after the shards quiesced sees everything without
// waiting out a merge tick.
func (m *merger) since(cursor uint64, max int) (alerts []monitord.SeqAlert, next uint64, dropped uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pollLocked()
	return m.log.Since(cursor, max)
}

// shardCursors snapshots the vector cursor (for /healthz and tests).
func (m *merger) shardCursors() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, len(m.cursors))
	copy(out, m.cursors)
	return out
}

func (m *merger) shutdown() {
	close(m.stop)
	<-m.done
	// One final sweep so nothing a shard produced before its own
	// shutdown is stranded on a shard ring.
	m.mu.Lock()
	m.pollLocked()
	m.mu.Unlock()
}
