package resilience

import (
	"time"

	"quicksand/internal/obs"
)

// Metrics instruments the resilience engine. All handles are nil-safe,
// so a zero Metrics (or a nil registry) makes every record a no-op;
// Compute treats a nil *Metrics the same way.
type Metrics struct {
	// Pairs counts (client-AS, guard-AS) resilience values produced.
	Pairs *obs.Counter
	// Tables counts two-origin hijack route tables computed — the
	// engine's unit of work (one per (guard, attacker) pair).
	Tables *obs.Counter
	// ShardSeconds observes the wall time of each per-guard shard (all
	// attacker tables for one guard destination).
	ShardSeconds *obs.Histogram
}

// shardBuckets spans sub-millisecond small-world shards up to
// multi-minute exact shards at Internet scale.
var shardBuckets = []float64{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10, 60, 300}

// NewMetrics registers the resilience_* metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Pairs:        reg.Counter("resilience_pairs_total", "Client-guard resilience values computed."),
		Tables:       reg.Counter("resilience_tables_total", "Two-origin hijack route tables computed."),
		ShardSeconds: reg.Histogram("resilience_shard_seconds", "Wall time of one per-guard destination shard.", shardBuckets),
	}
}

// observeShard records one finished guard shard: its wall time, the
// hijack tables it computed, and the pairs it produced.
func (m *Metrics) observeShard(d time.Duration, tables, pairs int) {
	if m == nil {
		return
	}
	m.ShardSeconds.Observe(d.Seconds())
	m.Tables.Add(uint64(tables))
	m.Pairs.Add(uint64(pairs))
}
