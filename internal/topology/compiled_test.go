package topology

import (
	"math/rand"
	"testing"
	"unsafe"

	"quicksand/internal/bgp"
)

// TestComputeRoutesIntoZeroAlloc pins the reuse path: with the result
// table and the Scratch kept from a previous call, an unscoped table —
// single-origin (RouteSet, RouteCache) or two-origin (the resilience
// matrix) — allocates nothing.
func TestComputeRoutesIntoZeroAlloc(t *testing.T) {
	g, err := Generate(GenConfig{
		Tier1: 3, Tier2: 15, Tier3: 80,
		Tier2PeerProb: 0.08, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Compiled()
	all := g.ASNs()
	victim, attacker := Origin{ASN: all[len(all)-1]}, Origin{ASN: all[len(all)/2]}
	var s Scratch
	var routes *CompiledRoutes
	for _, tc := range []struct {
		name string
		run  func() (*CompiledRoutes, error)
	}{
		{"single-origin", func() (*CompiledRoutes, error) { return c.ComputeRoutesInto(routes, &s, nil, victim) }},
		{"two-origin", func() (*CompiledRoutes, error) { return c.ComputeRoutesInto(routes, &s, nil, victim, attacker) }},
	} {
		if routes, err = tc.run(); err != nil { // warm the buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if routes, err = tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per reused-buffer call, want 0", tc.name, allocs)
		}
	}
}

// keyBytes is the size of one table entry that the layout and memory
// tests hold the engine to.
const keyBytes = 8

// TestRouteLayout is the tripwire for the table layout the engine's
// speed rests on: one 8-byte key per AS, eight to a cache line, and
// MemoryBytes costs each entry at its real size.
func TestRouteLayout(t *testing.T) {
	g := mustPowerLaw(t, DefaultPowerLawConfig(200))
	cr := mustRoutes(t, g, Origin{ASN: 1})
	if got := unsafe.Sizeof(cr.keys[0]); got != keyBytes {
		t.Errorf("table entry is %d bytes, want %d", got, keyBytes)
	}
	if got := cr.MemoryBytes() / cr.Len(); got != keyBytes {
		t.Errorf("MemoryBytes()/Len() = %d bytes per table entry, want %d", got, keyBytes)
	}
}

// TestRouteKeyOrder pins the key encoding against the decision process
// it replaces: on random routes, key order is customer > peer >
// provider, then shorter path, then lower next-hop ASN; both unrouted
// values sort above every route and decode to RouteNone; and At decodes
// every key it is handed back to the route it was packed from.
func TestRouteKeyOrder(t *testing.T) {
	g := NewGraph()
	for asn := bgp.ASN(1); asn <= 64; asn++ {
		g.AddAS(asn * 3) // ids 0..63, ASN = 3*(id+1)
	}
	c := g.Compiled()
	origins := []bgp.ASN{6, 30, 99}
	cr := &CompiledRoutes{c: c, keys: make([]uint64, 1), origins: origins}
	rng := rand.New(rand.NewSource(1))
	random := func() (Route, uint64) {
		t := RouteType(1 + rng.Intn(4))
		hop, oi := int32(rng.Intn(c.Len())), rng.Intn(len(origins))
		r := Route{Type: t, PathLen: int32(rng.Intn(6)), Origin: origins[oi]}
		if t == RouteOrigin {
			r.PathLen, hop = 0, 0
		} else {
			r.NextHop = c.ASN(int(hop))
		}
		return r, routeKey(t, uint64(r.PathLen), hop, uint64(oi))
	}
	// better is the decision process spelled out over Routes.
	better := func(a, b Route) bool {
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.PathLen != b.PathLen {
			return a.PathLen < b.PathLen
		}
		return a.NextHop < b.NextHop
	}
	for i := 0; i < 20000; i++ {
		a, ka := random()
		b, kb := random()
		if !better(a, b) && !better(b, a) && a != b {
			continue // a tie the engine never meets: one next hop has one origin
		}
		if better(a, b) != (ka < kb) || better(b, a) != (kb < ka) {
			t.Fatalf("%+v vs %+v: key order %v/%v disagrees with the decision process", a, b, ka < kb, kb < ka)
		}
		for _, u := range []uint64{unroutedTransit, unroutedStub} {
			if ka >= u {
				t.Fatalf("%+v: key %#x does not sort below unrouted %#x", a, ka, u)
			}
		}
		cr.keys[0] = ka
		if got := cr.At(0); got != a {
			t.Fatalf("At(key of %+v) = %+v", a, got)
		}
		if got := cr.OriginIndex(0); origins[got] != a.Origin {
			t.Fatalf("OriginIndex(key of %+v) = %d", a, got)
		}
	}
	for _, u := range []uint64{unroutedTransit, unroutedStub} {
		cr.keys[0] = u
		if got := cr.At(0); got != (Route{}) || cr.OriginIndex(0) != -1 {
			t.Errorf("unrouted %#x decodes to %+v, origin index %d; want RouteNone, -1", u, got, cr.OriginIndex(0))
		}
		if _, ok := cr.Route(c.ASN(0)); ok {
			t.Errorf("unrouted %#x: Route reports a route", u)
		}
	}
}

// TestCompiledErrors pins the engine's argument errors, text included:
// callers up to the CLI print them as they are.
func TestCompiledErrors(t *testing.T) {
	g := NewGraph()
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	many := make([]Origin, 33)
	for i := range many {
		many[i] = Origin{ASN: bgp.ASN(100 + i)}
		g.AddAS(many[i].ASN)
	}
	for _, tc := range []struct {
		origins []Origin
		want    string
	}{
		{nil, "topology: no origins"},
		{[]Origin{{ASN: 9}}, "topology: origin AS9 not in graph"},
		{[]Origin{{ASN: 1}, {ASN: 1}}, "topology: duplicate origin AS1"},
		{many, "topology: 33 origins exceed the route kernel's limit of 32"},
	} {
		if _, err := g.Routes(nil, tc.origins...); err == nil || err.Error() != tc.want {
			t.Errorf("Routes(%d origins): err = %v, want %q", len(tc.origins), err, tc.want)
		}
	}
	if _, err := g.Routes(nil, many[:32]...); err != nil {
		t.Errorf("Routes(32 origins): %v", err)
	}
}

func benchGraph(b *testing.B) (*Graph, bgp.ASN) {
	b.Helper()
	g, err := Generate(DefaultGenConfig()) // paper-scale: ~1028 ASes
	if err != nil {
		b.Fatal(err)
	}
	return g, g.TierASNs(3)[17]
}

// BenchmarkComputeRoutesCompiled measures the compiled engine in the
// hot-caller configuration: snapshot, scratch, and result array reused.
func BenchmarkComputeRoutesCompiled(b *testing.B) {
	g, dst := benchGraph(b)
	var s Scratch
	var cr *CompiledRoutes
	var err error
	if cr, err = g.RoutesInto(cr, &s, nil, Origin{ASN: dst}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cr, err = g.RoutesInto(cr, &s, nil, Origin{ASN: dst}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileDelta measures the per-event snapshot recompile cost
// after a single link flap (the churn simulator's mutation pattern).
func BenchmarkCompileDelta(b *testing.B) {
	g, dst := benchGraph(b)
	prov := g.AS(dst).Providers()[0]
	g.Compiled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RemoveLink(prov, dst)
		g.Compiled()
		if err := g.AddLink(prov, dst); err != nil {
			b.Fatal(err)
		}
		g.Compiled()
	}
}
