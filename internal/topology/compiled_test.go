package topology

import (
	"testing"
	"unsafe"

	"quicksand/internal/bgp"
)

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

// TestCompiledErrors pins the engine's three argument errors, text
// included: callers up to the CLI print them as they are.
func TestCompiledErrors(t *testing.T) {
	g := NewGraph()
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		origins []Origin
		want    string
	}{
		{nil, "topology: no origins"},
		{[]Origin{{ASN: 9}}, "topology: origin AS9 not in graph"},
		{[]Origin{{ASN: 1}, {ASN: 1}}, "topology: duplicate origin AS1"},
	} {
		if _, err := g.Routes(nil, tc.origins...); err == nil || err.Error() != tc.want {
			t.Errorf("Routes(%v): err = %v, want %q", tc.origins, err, tc.want)
		}
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
