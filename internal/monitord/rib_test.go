package monitord

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
	"quicksand/internal/iptrie"
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
	k, ok := iptrie.Key(prefix)
	if !ok {
		return // the sink drops non-IPv4 prefixes before a shard sees them
	}
	sh := &r.shards[r.shardOf(k)]
	sh.mu.Lock()
	sh.apply(t, session, k, path)
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

// TestShardOfStableAndInRange pins the shard hash: FNV-1a over the masked
// address bytes, then the prefix length. Fleet goldens count intake per
// shard, so a change of hash is a change of output.
func TestShardOfStableAndInRange(t *testing.T) {
	rib := newLiveRIB(8)
	for _, s := range []string{"10.0.0.0/8", "10.0.0.0/16", "10.1.2.3/16", "203.0.113.0/24", "0.0.0.0/0", "198.51.100.7/32"} {
		p := netip.MustParsePrefix(s)
		k, _ := iptrie.Key(p)
		a := p.Masked().Addr().As4()
		h := fnv.New32a()
		h.Write(append(a[:], byte(p.Bits())))
		if got, want := rib.shardOf(k), int(h.Sum32()%8); got != want {
			t.Errorf("shardOf(%v) = %d, want %d", p, got, want)
		}
	}
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
			// A fresh path slice per apply.
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

// TestExactMatchAgainstLinearOracle checks the two users of the prefix
// index on the ingest path against a linear scan (iptrie's
// TestLongestMatchAgainstReference checks the index itself): random
// announce/withdraw sequences over overlapping prefixes, among them /0,
// /1–/7 spanning several first octets, /32s and unmasked inputs. The RIB
// must agree across its shards on Lookup, LookupAddr, Walk order and
// Size; the monitor, built from a random watchlist over the same
// prefixes, on Relevant and on whether Observe calls an announcement
// exact, more specific or neither. IPv6 and invalid inputs match nothing.
func TestExactMatchAgainstLinearOracle(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 5, 7, 8, 9, 12, 16, 23, 24, 31, 32}
	octets := []byte{0, 1, 10, 11, 63, 64, 127, 128, 200, 255}
	t0 := time.Unix(1000, 0)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randPrefix := func() netip.Prefix {
			a := [4]byte{octets[rng.Intn(len(octets))], byte(rng.Intn(3)), byte(rng.Intn(3)), byte(rng.Intn(256))}
			return netip.PrefixFrom(netip.AddrFrom4(a), lengths[rng.Intn(len(lengths))]) // unmasked
		}
		pool := make([]netip.Prefix, 40)
		for i := range pool {
			pool[i] = randPrefix()
		}
		probes := append([]netip.Prefix{{}, netip.MustParsePrefix("2001:db8::/32")}, pool...)
		for i := 0; i < 40; i++ {
			probes = append(probes, randPrefix())
		}

		rib := newLiveRIB(1 + int(seed)%4)
		oracle := map[netip.Prefix]map[int][]bgp.ASN{} // masked prefix -> session -> path
		for op := 0; op < 300; op++ {
			p, session := pool[rng.Intn(len(pool))], rng.Intn(4)
			var path []bgp.ASN
			if rng.Intn(3) > 0 {
				path = asns(uint32(op), uint32(rng.Intn(5)))[:rng.Intn(3)]
			}
			rib.apply(t0, session, p, path)
			switch m := oracle[p.Masked()]; {
			case path != nil && m == nil:
				oracle[p.Masked()] = map[int][]bgp.ASN{session: path}
			case path != nil:
				m[session] = path
			case m != nil:
				delete(m, session)
				if len(m) == 0 {
					delete(oracle, p.Masked())
				}
			}
			if op%10 == 0 {
				if err := checkRIBOracle(rib, oracle, probes); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}

		watched := map[netip.Prefix]bgp.ASN{}
		for _, p := range pool[:1+rng.Intn(12)] {
			watched[p.Masked()] = 65000
		}
		mon, err := defense.NewMonitor(watched)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range probes {
			_, exact := watched[q.Masked()]
			inside := false
			for w := range watched {
				inside = inside || (w.Bits() < q.Bits() && w.Contains(q.Addr()))
			}
			exact = exact && q.Addr().Is4()
			inside = inside && q.Addr().Is4()
			k, ok := iptrie.Key(q)
			if got := ok && mon.Relevant(k); got != (exact || inside) {
				t.Fatalf("seed %d: Relevant(%v) = %v; oracle exact %v, more specific %v (watching %v)", seed, q, got, exact, inside, watched)
			}
			u := bgpsim.UpdateEvent{Time: t0, Prefix: q, Path: asns(3320, 666)}
			var kinds []defense.AlertKind
			for _, a := range mon.Observe(&u) {
				kinds = append(kinds, a.Kind)
			}
			var want []defense.AlertKind
			switch {
			case exact:
				want = []defense.AlertKind{defense.AlertOriginChange}
			case inside:
				want = []defense.AlertKind{defense.AlertMoreSpecific}
			}
			if !slices.Equal(kinds, want) {
				t.Fatalf("seed %d: Observe(%v) raised %v, oracle %v (watching %v)", seed, q, kinds, want, watched)
			}
		}
	}
}

// checkRIBOracle compares the live RIB with the oracle's masked prefix ->
// session -> path fold by a linear scan.
func checkRIBOracle(rib *liveRIB, oracle map[netip.Prefix]map[int][]bgp.ASN, probes []netip.Prefix) error {
	if rib.Size() != len(oracle) {
		return fmt.Errorf("Size = %d, oracle %d", rib.Size(), len(oracle))
	}
	same := func(e *RIBEntry, p netip.Prefix) error {
		m := oracle[p]
		if e.Prefix != p || len(e.Routes) != len(m) {
			return fmt.Errorf("entry %v with %d routes, oracle %v with %d", e.Prefix, len(e.Routes), p, len(m))
		}
		for i, rt := range e.Routes {
			want, ok := m[rt.Session]
			if !ok || (i > 0 && rt.Session <= e.Routes[i-1].Session) || !slices.Equal(rt.Path, want) || rt.Path == nil {
				return fmt.Errorf("%v route %d = %+v, oracle %v", p, i, rt, m)
			}
		}
		return nil
	}
	for _, q := range probes {
		e, ok := rib.Lookup(q)
		if _, want := oracle[q.Masked()]; ok != (want && q.Addr().Is4()) {
			return fmt.Errorf("Lookup(%v) ok = %v, oracle %v", q, ok, want)
		}
		if ok {
			if err := same(e, q.Masked()); err != nil {
				return fmt.Errorf("Lookup(%v): %v", q, err)
			}
		}
		best, found := netip.Prefix{}, false
		for p := range oracle {
			if p.Contains(q.Addr()) && (!found || p.Bits() > best.Bits()) {
				best, found = p, true
			}
		}
		e, ok = rib.LookupAddr(q.Addr())
		if ok != found {
			return fmt.Errorf("LookupAddr(%v) ok = %v, oracle %v", q.Addr(), ok, found)
		}
		if ok {
			if err := same(e, best); err != nil {
				return fmt.Errorf("LookupAddr(%v): %v", q.Addr(), err)
			}
		}
	}
	// Walk: every entry once, shard by shard, each shard by address then
	// length (key order).
	want := make([]netip.Prefix, 0, len(oracle))
	for p := range oracle {
		want = append(want, p)
	}
	shard := func(p netip.Prefix) int { k, _ := iptrie.Key(p); return rib.shardOf(k) }
	slices.SortFunc(want, func(a, b netip.Prefix) int {
		if c := cmp.Compare(shard(a), shard(b)); c != 0 {
			return c
		}
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return cmp.Compare(a.Bits(), b.Bits())
	})
	var walkErr error
	i := 0
	rib.Walk(func(e *RIBEntry) bool {
		if i >= len(want) {
			walkErr = fmt.Errorf("Walk visits %v past the oracle's %d entries", e.Prefix, len(want))
			return false
		}
		if err := same(e, want[i]); err != nil {
			walkErr = fmt.Errorf("Walk entry %d: %v", i, err)
			return false
		}
		i++
		return true
	})
	if walkErr == nil && i != len(want) {
		walkErr = fmt.Errorf("Walk visited %d entries, oracle %d", i, len(want))
	}
	return walkErr
}
