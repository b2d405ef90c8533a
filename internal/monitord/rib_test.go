package monitord

import (
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
)

func asns(vs ...uint32) []bgp.ASN {
	out := make([]bgp.ASN, len(vs))
	for i, v := range vs {
		out[i] = bgp.ASN(v)
	}
	return out
}

// apply folds one update into the RIB as a shard worker would: under the
// prefix's shard's lock.
func (r *liveRIB) apply(t time.Time, session int, prefix netip.Prefix, path []bgp.ASN) {
	sh := &r.shards[r.shardOf(prefix)]
	sh.mu.Lock()
	sh.apply(t, session, prefix, path)
	sh.mu.Unlock()
}

func TestLiveRIBApplyLookupWithdraw(t *testing.T) {
	rib := newLiveRIB(4)
	p := netip.MustParsePrefix("10.0.0.0/16")
	t0 := time.Unix(1000, 0)

	rib.apply(t0, 1, p, asns(100, 200, 300))
	rib.apply(t0, 0, p, asns(100, 300))
	if rib.Size() != 1 {
		t.Fatalf("Size = %d, want 1", rib.Size())
	}

	e, ok := rib.Lookup(p)
	if !ok || len(e.Routes) != 2 {
		t.Fatalf("Lookup = %+v, %v; want 2 routes", e, ok)
	}
	if e.Routes[0].Session != 0 || e.Routes[1].Session != 1 {
		t.Errorf("routes not sorted by session: %+v", e.Routes)
	}
	best, ok := e.Best()
	if !ok || best.Session != 0 {
		t.Errorf("Best = %+v, %v; want session 0 (shorter path)", best, ok)
	}

	// Re-announcement replaces the session's path.
	rib.apply(t0.Add(time.Second), 0, p, asns(100, 200, 250, 300))
	e, _ = rib.Lookup(p)
	best, _ = e.Best()
	if best.Session != 1 {
		t.Errorf("after longer re-announce, Best.Session = %d, want 1", best.Session)
	}

	// A present-but-empty AS_PATH is a live route and the shortest one.
	rib.apply(t0, 2, p, asns())
	e, _ = rib.Lookup(p)
	if best, ok := e.Best(); !ok || best.Session != 2 {
		t.Errorf("with an empty-path route, Best = %+v, %v; want session 2", best, ok)
	}
	rib.apply(t0, 2, p, nil)
	if _, ok := (&RIBEntry{Prefix: p}).Best(); ok {
		t.Error("Best ok on an entry with no routes")
	}

	// Snapshots are copies: mutating one must not touch the RIB.
	e.Routes[0].Path[0] = 9999
	e2, _ := rib.Lookup(p)
	if e2.Routes[0].Path[0] == 9999 {
		t.Error("Lookup snapshot aliases live RIB storage")
	}

	// Withdrawals remove per-session; the last one drops the prefix.
	rib.apply(t0, 0, p, nil)
	if e, _ := rib.Lookup(p); len(e.Routes) != 1 {
		t.Fatalf("after withdraw session 0: %d routes, want 1", len(e.Routes))
	}
	rib.apply(t0, 1, p, nil)
	if _, ok := rib.Lookup(p); ok || rib.Size() != 0 {
		t.Errorf("after last withdraw, prefix still present (size %d)", rib.Size())
	}
	// Withdrawing an absent prefix is a no-op.
	rib.apply(t0, 0, netip.MustParsePrefix("172.16.0.0/12"), nil)
	if rib.Size() != 0 {
		t.Errorf("withdraw of absent prefix changed size to %d", rib.Size())
	}
}

func TestLiveRIBLongestMatchAcrossShards(t *testing.T) {
	// One shard per entry would hide cross-shard LPM bugs; use enough
	// shards that /8 and /16 land apart for most hash functions.
	rib := newLiveRIB(8)
	t0 := time.Unix(0, 0)
	rib.apply(t0, 0, netip.MustParsePrefix("10.0.0.0/8"), asns(1, 2))
	rib.apply(t0, 0, netip.MustParsePrefix("10.1.0.0/16"), asns(1, 3))

	e, ok := rib.LookupAddr(netip.MustParseAddr("10.1.2.3"))
	if !ok || e.Prefix != netip.MustParsePrefix("10.1.0.0/16") {
		t.Errorf("LookupAddr(10.1.2.3) = %+v, %v; want the /16", e, ok)
	}
	e, ok = rib.LookupAddr(netip.MustParseAddr("10.2.0.1"))
	if !ok || e.Prefix != netip.MustParsePrefix("10.0.0.0/8") {
		t.Errorf("LookupAddr(10.2.0.1) = %+v, %v; want the /8", e, ok)
	}
	if _, ok := rib.LookupAddr(netip.MustParseAddr("192.0.2.1")); ok {
		t.Error("LookupAddr outside every prefix reported a match")
	}

	n := 0
	rib.Walk(func(e *RIBEntry) bool { n++; return true })
	if n != 2 {
		t.Errorf("Walk visited %d entries, want 2", n)
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	rib := newLiveRIB(8)
	ps := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("203.0.113.0/24"),
	}
	for _, p := range ps {
		s := rib.shardOf(p)
		if s < 0 || s >= 8 {
			t.Fatalf("shardOf(%v) = %d out of range", p, s)
		}
		if s2 := rib.shardOf(p); s2 != s {
			t.Errorf("shardOf(%v) not stable: %d vs %d", p, s, s2)
		}
	}
	// Same address, different lengths must be allowed to differ (they are
	// distinct prefixes), but must at least be deterministic — and the
	// /8 vs /16 pair above exercises the Bits() mixing.
}

// TestRIBConcurrentLookupApply pins that Lookup/LookupAddr hand back
// snapshots, not views into live RIB state: readers mutate the returned
// entries as hard as they can while writers churn the same prefixes, and
// the race detector plus a final content check must both stay clean.
// This is the aliasing audit for handleRIB serving entry.Routes — if
// snapshotEntry ever stops deep-copying paths, -race fails here.
func TestRIBConcurrentLookupApply(t *testing.T) {
	rib := newLiveRIB(4)
	p := netip.MustParsePrefix("10.0.0.0/16")
	t0 := time.Unix(1000, 0)
	rib.apply(t0, 0, p, asns(100, 200, 300))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			// Fresh path slice per apply, like flattenPath in the daemon.
			rib.apply(t0.Add(time.Duration(i)), 0, p, asns(100, 200, uint32(300+i%7)))
			if i%3 == 0 {
				rib.apply(t0, 1, p, nil) // withdraw a route that may not exist
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if e, ok := rib.Lookup(p); ok {
			for j := range e.Routes {
				// Scribble over the snapshot: must never reach the RIB.
				for k := range e.Routes[j].Path {
					e.Routes[j].Path[k] = 666
				}
				e.Routes[j].Session = -1
			}
			e.Routes = nil
		}
		if e, ok := rib.LookupAddr(p.Addr()); ok && len(e.Routes) > 0 {
			e.Routes[0].Path = append(e.Routes[0].Path, 666)
		}
	}
	<-done

	e, ok := rib.Lookup(p)
	if !ok || len(e.Routes) == 0 {
		t.Fatalf("prefix lost after churn: %+v, %v", e, ok)
	}
	for _, rt := range e.Routes {
		if len(rt.Path) != 3 || rt.Path[0] != 100 || rt.Path[1] != 200 {
			t.Fatalf("reader scribbles reached the RIB: %+v", rt)
		}
		if rt.Session < 0 {
			t.Fatalf("session mutated through snapshot: %+v", rt)
		}
	}
}
