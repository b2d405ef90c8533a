package testkit

import (
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
)

// TestFleetMatchesBatchMonitor runs the fleet-vs-batch equivalence
// check over random churn with injected hijacks, at fleet widths 1 (the
// degenerate single-shard control), 4 and 8. On top of the simulator's
// same-prefix hijacks it appends the cases the fleet's filter must get
// right: more-specific hijacks of watched prefixes (which it must pass)
// and a covering less-specific announcement (which it may drop, since it
// alerts nowhere).
func TestFleetMatchesBatchMonitor(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		w, err := RandomWorld(seed)
		if err != nil {
			t.Fatalf("seed %d: world: %v", seed, err)
		}
		cfg := RandomChurnConfig(seed)
		torList := w.SortedTorPrefixes()
		cfg.InjectHijacks = 4
		cfg.HijackTargets = torList
		st, err := w.SimulateMonth(cfg)
		if err != nil {
			t.Fatalf("seed %d: stream: %v", seed, err)
		}
		watched := w.TorWatchlist()

		// Append the filter's edge cases after the simulated run (order
		// does not matter at learnFraction 0).
		ts := st.End
		appended := 0
		for i, p := range torList {
			if p.Bits() > 24 {
				continue
			}
			si := i % len(st.Sessions)
			vantage := st.Sessions[si].PeerAS
			ts = ts.Add(time.Second)
			// More-specific hijack: a /(-bits+8) carve-out of the watched
			// prefix from a bogus origin.
			sub := netip.PrefixFrom(p.Addr(), p.Bits()+8)
			st.Updates = append(st.Updates, bgpsim.UpdateEvent{
				Time: ts, Session: si, Prefix: sub,
				Path: []bgp.ASN{vantage, bgp.ASN(64666 + i)},
			})
			// Covering announcement: strictly less specific than the
			// watched prefix — legitimate aggregation, alerts nowhere.
			if p.Bits() > 8 {
				super := netip.PrefixFrom(p.Addr(), p.Bits()-4).Masked()
				ts = ts.Add(time.Second)
				st.Updates = append(st.Updates, bgpsim.UpdateEvent{
					Time: ts, Session: si, Prefix: super,
					Path: []bgp.ASN{vantage, bgp.ASN(64800 + i)},
				})
			}
			appended++
		}
		if appended == 0 {
			t.Fatalf("seed %d: no watched prefix left room for a more-specific", seed)
		}

		for _, n := range []int{1, 4, 8} {
			if err := CheckFleetEquivalence(st, watched, n); err != nil {
				t.Errorf("seed %d fleet %d: %v", seed, n, err)
			}
		}
	}
}
