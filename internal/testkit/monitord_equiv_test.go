package testkit

import "testing"

// TestMonitordMatchesBatchMonitor runs the streaming-vs-batch
// equivalence check over random churn scenarios with hijacks injected
// against the watched (Tor) prefixes, across several shard widths —
// including shards=1 (no concurrency, the degenerate control) and more
// shards than prefixes.
func TestMonitordMatchesBatchMonitor(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w, err := RandomWorld(seed)
		if err != nil {
			t.Fatalf("seed %d: world: %v", seed, err)
		}
		cfg := RandomChurnConfig(seed)
		cfg.InjectHijacks = 4
		cfg.HijackTargets = w.SortedTorPrefixes()
		st, err := w.SimulateMonth(cfg)
		if err != nil {
			t.Fatalf("seed %d: stream: %v", seed, err)
		}
		for _, shards := range []int{1, 4, 16} {
			if err := CheckMonitordEquivalence(st, w.TorWatchlist(), shards); err != nil {
				t.Errorf("seed %d shards %d: %v", seed, shards, err)
			}
		}
	}
}
