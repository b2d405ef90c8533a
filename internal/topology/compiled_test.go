package topology

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"quicksand/internal/bgp"
)

// diffTables compares a compiled result against a legacy map table and
// returns a description of the first few mismatches.
func diffTables(t *testing.T, cr *CompiledRoutes, rt RouteTable) {
	t.Helper()
	for i := 0; i < cr.Len(); i++ {
		asn := cr.ASN(i)
		got := cr.At(i)
		want, ok := rt[asn]
		if !ok {
			want = Route{}
		}
		if got != want {
			t.Fatalf("AS %v: compiled %+v, legacy %+v", asn, got, want)
		}
	}
	for asn := range rt {
		if _, ok := cr.Route(asn); !ok {
			t.Fatalf("AS %v: routed in legacy table, unrouted in compiled", asn)
		}
	}
}

// TestCompiledMatchesLegacy pins the compiled engine bit-for-bit against
// ComputeRoutesFiltered across generated topologies, multi-origin hijack
// configs, announcement scoping, and import filters.
func TestCompiledMatchesLegacy(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, err := Generate(GenConfig{
			Tier1: 3, Tier2: 25, Tier3: 150,
			Tier2PeerProb: 0.1, MaxT2Providers: 3, MaxT3Providers: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		all := g.ASNs()
		pick := func() bgp.ASN { return all[rng.Intn(len(all))] }

		cases := make([][]Origin, 0, 8)
		v, a := pick(), pick()
		for a == v {
			a = pick()
		}
		cases = append(cases,
			[]Origin{{ASN: v}},
			[]Origin{{ASN: v}, {ASN: a}}, // hijack: two origins compete
			[]Origin{{ASN: v}, {ASN: a, WithholdFrom: map[bgp.ASN]bool{g.Neighbors(a)[0]: true}}},
		)
		if nbs := g.Neighbors(a); len(nbs) > 0 {
			only := map[bgp.ASN]bool{nbs[rng.Intn(len(nbs))]: true}
			cases = append(cases, []Origin{{ASN: v}, {ASN: a, AnnounceOnly: only}})
		}
		validators := make(map[bgp.ASN]bool)
		for _, asn := range all {
			if rng.Float64() < 0.3 {
				validators[asn] = true
			}
		}
		rov := func(at, origin bgp.ASN) bool {
			return !validators[at] || origin == v
		}
		for ci, origins := range cases {
			for _, filter := range []ImportFilter{nil, rov} {
				rt, err := g.ComputeRoutesFiltered(filter, origins...)
				if err != nil {
					t.Fatal(err)
				}
				cr, err := g.Compiled().Routes(nil, filter, origins...)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("seed%d/case%d/filtered=%v", seed, ci, filter != nil), func(t *testing.T) {
					diffTables(t, cr, rt)
				})
			}
		}
	}
}

// TestCompiledDeltaRecompile mutates the graph the way the churn
// simulator does and checks that delta-recompiled snapshots route
// identically to both a full compile and the legacy engine.
func TestCompiledDeltaRecompile(t *testing.T) {
	g, err := Generate(GenConfig{
		Tier1: 3, Tier2: 20, Tier3: 100,
		Tier2PeerProb: 0.1, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	all := g.ASNs()
	dst := all[rng.Intn(len(all))]
	check := func(step string) {
		t.Helper()
		cr, err := g.Routes(nil, Origin{ASN: dst})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		rt, err := g.ComputeRoutes(Origin{ASN: dst})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		diffTables(t, cr, rt)
		// The delta-recompiled snapshot must equal a from-scratch one.
		full := compileFull(g)
		cur := g.Compiled()
		if len(full.cust) != len(cur.cust) || len(full.peer) != len(cur.peer) || len(full.prov) != len(cur.prov) {
			t.Fatalf("%s: delta recompile CSR sizes diverge from full compile", step)
		}
		for i := range full.cust {
			if full.cust[i] != cur.cust[i] {
				t.Fatalf("%s: customer row mismatch at %d", step, i)
			}
		}
	}

	check("initial")
	v0 := g.Version()
	// Remove and restore a provider link of a stub (origin-churn shape).
	stub := g.TierASNs(3)[0]
	prov := g.AS(stub).Providers()[0]
	if !g.RemoveLink(prov, stub) {
		t.Fatal("RemoveLink failed")
	}
	if g.Version() == v0 {
		t.Fatal("RemoveLink did not bump the graph version")
	}
	check("after RemoveLink")
	if err := g.AddLink(prov, stub); err != nil {
		t.Fatal(err)
	}
	check("after AddLink")
	// Policy shift: a fresh tier-2 peering.
	t2 := g.TierASNs(2)
	if err := g.AddPeering(t2[0], t2[len(t2)-1]); err == nil {
		check("after AddPeering")
	}
	// Growing the AS set forces (and survives) a full recompile.
	if err := g.AddLink(t2[0], bgp.ASN(999999)); err != nil {
		t.Fatal(err)
	}
	check("after AddAS via AddLink")
	// No mutation: the snapshot is cached.
	if g.Compiled() != g.Compiled() {
		t.Fatal("Compiled() rebuilt the snapshot without a mutation")
	}
}

// TestCompiledScratchReuse verifies a shared Scratch and result array
// across many computations of different shapes (the churn-loop pattern)
// never leak state between runs.
func TestCompiledScratchReuse(t *testing.T) {
	g, err := Generate(GenConfig{
		Tier1: 3, Tier2: 15, Tier3: 80,
		Tier2PeerProb: 0.08, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	all := g.ASNs()
	var s Scratch
	var cr *CompiledRoutes
	for i := 0; i < 50; i++ {
		origins := []Origin{{ASN: all[rng.Intn(len(all))]}}
		if i%3 == 1 {
			o2 := all[rng.Intn(len(all))]
			if o2 != origins[0].ASN {
				origins = append(origins, Origin{ASN: o2})
			}
		}
		cr, err = g.RoutesInto(cr, &s, nil, origins...)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := g.ComputeRoutes(origins...)
		if err != nil {
			t.Fatal(err)
		}
		diffTables(t, cr, rt)
	}
}

// TestComputeRoutesIntoZeroAlloc pins the reuse path: with the result
// array and the Scratch kept from a previous call, an unscoped table —
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
	var routes []Route
	for _, tc := range []struct {
		name string
		run  func() ([]Route, error)
	}{
		{"single-origin", func() ([]Route, error) { return c.ComputeRoutesInto(routes, &s, nil, victim) }},
		{"two-origin", func() ([]Route, error) { return c.ComputeRoutesInto(routes, &s, nil, victim, attacker) }},
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

// TestRouteLayout is the tripwire for the table layout the engine's
// speed rests on: four routes per cache line.
func TestRouteLayout(t *testing.T) {
	if got := unsafe.Sizeof(Route{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Route{}) = %d, want 16", got)
	}
}

// TestCompiledRoutesAccessors covers the table-view methods against the
// legacy representations.
func TestCompiledRoutesAccessors(t *testing.T) {
	g, err := Generate(GenConfig{
		Tier1: 2, Tier2: 10, Tier3: 40,
		Tier2PeerProb: 0.1, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := g.TierASNs(3)[3]
	cr, err := g.Routes(nil, Origin{ASN: dst})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := g.ComputeRoutes(Origin{ASN: dst})
	if err != nil {
		t.Fatal(err)
	}
	if got := cr.Table(); len(got) != len(rt) {
		t.Fatalf("Table() has %d entries, legacy %d", len(got), len(rt))
	} else {
		for asn, r := range rt {
			if got[asn] != r {
				t.Fatalf("Table()[%v] = %+v, want %+v", asn, got[asn], r)
			}
		}
	}
	for _, src := range g.ASNs() {
		wantP, wantOK := rt.PathFrom(src)
		gotP, gotOK := cr.PathFrom(src)
		if wantOK != gotOK || len(wantP) != len(gotP) {
			t.Fatalf("PathFrom(%v) = %v,%v, want %v,%v", src, gotP, gotOK, wantP, wantOK)
		}
		for i := range wantP {
			if wantP[i] != gotP[i] {
				t.Fatalf("PathFrom(%v) = %v, want %v", src, gotP, wantP)
			}
		}
		wantAP, _ := rt.ASPathFrom(src)
		gotAP, _ := cr.ASPathFrom(src)
		if wantAP.String() != gotAP.String() {
			t.Fatalf("ASPathFrom(%v) = %v, want %v", src, gotAP, wantAP)
		}
	}
	if _, ok := cr.Route(bgp.ASN(424242)); ok {
		t.Fatal("Route() of an unknown ASN reported ok")
	}
	if id, ok := cr.c.ID(dst); !ok || cr.ASN(int(id)) != dst {
		t.Fatal("ID/ASN interning round trip failed")
	}
}

// TestCompiledErrors pins the error cases to the legacy messages.
func TestCompiledErrors(t *testing.T) {
	g := NewGraph()
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Routes(nil); err == nil {
		t.Fatal("no origins: want error")
	}
	if _, err := g.Routes(nil, Origin{ASN: 9}); err == nil {
		t.Fatal("unknown origin: want error")
	}
	if _, err := g.Routes(nil, Origin{ASN: 1}, Origin{ASN: 1}); err == nil {
		t.Fatal("duplicate origin: want error")
	}
}

// TestRouteCache covers sharing, invalidation on mutation, and the
// PathFrom convenience.
func TestRouteCache(t *testing.T) {
	g, err := Generate(GenConfig{
		Tier1: 2, Tier2: 10, Tier3: 50,
		Tier2PeerProb: 0.1, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRouteCache(g)
	if rc.Graph() != g {
		t.Fatal("Graph() accessor broken")
	}
	dst := g.TierASNs(3)[1]
	cr1, err := rc.Routes(dst)
	if err != nil {
		t.Fatal(err)
	}
	cr2, err := rc.Routes(dst)
	if err != nil {
		t.Fatal(err)
	}
	if cr1 != cr2 {
		t.Fatal("cache recomputed an unchanged destination")
	}
	src := g.TierASNs(3)[2]
	path, ok, err := rc.PathFrom(src, dst)
	if err != nil || !ok {
		t.Fatalf("PathFrom(%v,%v) = %v,%v,%v", src, dst, path, ok, err)
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("PathFrom endpoints wrong: %v", path)
	}
	// Mutating the graph flushes the cache on next lookup.
	prov := g.AS(dst).Providers()[0]
	g.RemoveLink(prov, dst)
	cr3, err := rc.Routes(dst)
	if err != nil {
		t.Fatal(err)
	}
	if cr3 == cr1 {
		t.Fatal("cache served a stale table across a graph mutation")
	}
	rt, err := g.ComputeRoutes(Origin{ASN: dst})
	if err != nil {
		t.Fatal(err)
	}
	diffTables(t, cr3, rt)
	if _, err := rc.Routes(bgp.ASN(5555555)); err == nil {
		t.Fatal("unknown destination: want error")
	}
	if _, _, err := rc.PathFrom(src, bgp.ASN(5555555)); err == nil {
		t.Fatal("PathFrom to unknown destination: want error")
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

// BenchmarkComputeRoutesLegacy measures the map-based reference engine
// at paper scale; results/bench.sh compares it against the compiled
// engine into results/BENCH_routes.json.
func BenchmarkComputeRoutesLegacy(b *testing.B) {
	g, dst := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ComputeRoutes(Origin{ASN: dst}); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkComputeRoutesCompiledFresh measures the compiled engine with
// per-call allocation (the one-shot caller pattern).
func BenchmarkComputeRoutesCompiledFresh(b *testing.B) {
	g, dst := benchGraph(b)
	g.Compiled() // exclude the one-time compile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Routes(nil, Origin{ASN: dst}); err != nil {
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
