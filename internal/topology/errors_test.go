package topology

import (
	"strings"
	"testing"

	"quicksand/internal/bgp"
)

func TestRelAndRouteTypeStrings(t *testing.T) {
	relCases := map[Rel]string{
		RelCustomer: "customer", RelPeer: "peer", RelProvider: "provider",
		Rel(42): "Rel(42)",
	}
	for r, want := range relCases {
		if got := r.String(); got != want {
			t.Errorf("Rel(%d).String() = %q, want %q", int(r), got, want)
		}
	}
	typeCases := map[RouteType]string{
		RouteNone: "none", RouteOrigin: "origin", RouteCustomer: "customer",
		RoutePeer: "peer", RouteProvider: "provider",
		RouteType(42): "RouteType(42)",
	}
	for rt, want := range typeCases {
		if got := rt.String(); got != want {
			t.Errorf("RouteType(%d).String() = %q, want %q", int(rt), got, want)
		}
	}
}

func TestInsertSortedIgnoresDuplicates(t *testing.T) {
	s := []bgp.ASN{1, 3, 5}
	if got := insertSorted(s, 3); len(got) != 3 {
		t.Fatalf("inserting duplicate grew slice to %v", got)
	}
	got := insertSorted(s, 4)
	want := []bgp.ASN{1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("insertSorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("insertSorted = %v, want %v", got, want)
		}
	}
}

func TestAddLinkAndPeeringErrors(t *testing.T) {
	g := NewGraph()
	if err := g.AddLink(7, 7); err == nil {
		t.Error("self link accepted")
	}
	if err := g.AddPeering(7, 7); err == nil {
		t.Error("self peering accepted")
	}
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := g.AddLink(2, 1); err == nil {
		t.Error("reversed duplicate link accepted")
	}
	if err := g.AddPeering(1, 2); err == nil {
		t.Error("peering over existing transit link accepted")
	}
	if err := g.AddPeering(3, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeering(4, 3); err == nil {
		t.Error("duplicate peering accepted")
	}
	if err := g.AddLink(3, 4); err == nil {
		t.Error("transit link over existing peering accepted")
	}
}

func TestRemoveLinkAllRelationships(t *testing.T) {
	g := NewGraph()
	if err := g.AddLink(1, 2); err != nil { // 2 is 1's customer
		t.Fatal(err)
	}
	if err := g.AddPeering(1, 3); err != nil {
		t.Fatal(err)
	}

	if g.RemoveLink(9, 1) || g.RemoveLink(1, 9) {
		t.Error("removal with an unknown endpoint reported success")
	}
	if g.RemoveLink(2, 3) {
		t.Error("removal of a non-adjacent pair reported success")
	}
	// Transit link named from the customer side: the providers branch.
	if !g.RemoveLink(2, 1) {
		t.Error("customer-side removal failed")
	}
	if _, ok := g.RelBetween(1, 2); ok {
		t.Error("transit link survived removal")
	}
	if !g.RemoveLink(1, 3) {
		t.Error("peering removal failed")
	}
	if _, ok := g.RelBetween(1, 3); ok {
		t.Error("peering survived removal")
	}
	// Provider-side naming: the customers branch.
	if err := g.AddLink(4, 5); err != nil {
		t.Fatal(err)
	}
	if !g.RemoveLink(4, 5) {
		t.Error("provider-side removal failed")
	}
	if g.RemoveLink(4, 5) {
		t.Error("second removal of the same link reported success")
	}
}

// TestPathFromDefendsAgainstBadTables hands CompiledRoutes.PathFrom
// tables the engine never produces; it must refuse, not loop or panic.
func TestPathFromDefendsAgainstBadTables(t *testing.T) {
	g := NewGraph()
	g.AddAS(1)
	g.AddAS(2)
	c := g.Compiled()
	bad := func(keys ...uint64) *CompiledRoutes {
		return &CompiledRoutes{c: c, keys: keys, origins: []bgp.ASN{9}}
	}
	provider := func(hop int32) uint64 { return routeKey(RouteProvider, 1, hop, 0) }
	for _, u := range []uint64{unroutedTransit, unroutedStub} {
		if _, ok := bad(u, u).PathFrom(1); ok {
			t.Errorf("path from an AS with no route (%#x)", u)
		}
	}
	// A next-hop id outside the table, then one naming an unrouted AS.
	if _, ok := bad(provider(7), unroutedStub).PathFrom(1); ok {
		t.Error("path through an out-of-range next-hop id")
	}
	if _, ok := bad(provider(maxKeyIDs), unroutedStub).PathFrom(1); ok {
		t.Error("path through the largest next-hop id")
	}
	if _, ok := bad(provider(1), unroutedStub).PathFrom(1); ok {
		t.Error("path through a dangling next hop")
	}
	// Two non-origin routes pointing at each other: the cycle guard.
	cyclic := bad(provider(1), provider(0))
	if _, ok := cyclic.PathFrom(1); ok {
		t.Error("path through a routing cycle")
	}
	// A path length far beyond the table must not size the path buffer.
	if p, ok := bad(routeKey(RouteProvider, maxKeyIDs, 1, 0), routeKey(RouteOrigin, 0, 0, 0)).PathFrom(1); !ok || len(p) != 2 || cap(p) > 3 {
		t.Errorf("path = %v (cap %d), ok=%v; want [AS1 AS2] in a small buffer", p, cap(p), ok)
	}
}

func TestValleyFreeRejections(t *testing.T) {
	g := NewGraph()
	// 1 buys from 2 and 3; 3 buys from 5; 4 buys from 3; 2–3 peer; 1–6 peer.
	for _, link := range [][2]bgp.ASN{{2, 1}, {3, 1}, {3, 4}, {5, 3}} {
		if err := g.AddLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddPeering(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeering(1, 6); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		path []bgp.ASN
		want bool
	}{
		{"empty", nil, true},
		{"single", []bgp.ASN{1}, true},
		{"up-across-down", []bgp.ASN{1, 2, 3, 4}, true},
		{"up-down", []bgp.ASN{1, 2}, true},
		{"non-adjacent hop", []bgp.ASN{1, 4}, false},
		{"down-up valley", []bgp.ASN{2, 1, 3}, false},
		{"across-up", []bgp.ASN{2, 3, 1}, true}, // 3→1 is down, legal
		{"up-after-across", []bgp.ASN{2, 3, 5}, false},
		{"across-after-down", []bgp.ASN{2, 1, 6}, false},
	}
	for _, tc := range cases {
		if got := g.ValleyFree(tc.path); got != tc.want {
			t.Errorf("%s: ValleyFree(%v) = %v, want %v", tc.name, tc.path, got, tc.want)
		}
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	base := DefaultGenConfig()
	cases := []struct {
		name   string
		mutate func(*GenConfig)
		errSub string
	}{
		{"no tier1", func(c *GenConfig) { c.Tier1 = 0 }, "Tier1"},
		{"negative tier2", func(c *GenConfig) { c.Tier2 = -1 }, "negative"},
		{"negative tier3", func(c *GenConfig) { c.Tier3 = -1 }, "negative"},
		{"peer prob too high", func(c *GenConfig) { c.Tier2PeerProb = 1.5 }, "out of"},
		{"peer prob negative", func(c *GenConfig) { c.Tier2PeerProb = -0.1 }, "out of"},
		{"zero t2 providers", func(c *GenConfig) { c.MaxT2Providers = 0 }, "provider bounds"},
		{"zero t3 providers", func(c *GenConfig) { c.MaxT3Providers = 0 }, "provider bounds"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		_, err := Generate(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.errSub) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.errSub)
		}
	}
}

func TestGenerateWithoutTier2(t *testing.T) {
	// No regional tier: stubs must attach directly to the tier-1 clique.
	g, err := Generate(GenConfig{
		Tier1: 2, Tier3: 6,
		MaxT2Providers: 1, MaxT3Providers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		asn := bgp.ASN(10001 + i)
		for _, prov := range g.AS(asn).Providers() {
			if g.AS(prov).Tier != 1 {
				t.Errorf("AS%d has non-tier-1 provider AS%d", asn, prov)
			}
		}
	}
}

func TestGenerateSingleTier1(t *testing.T) {
	// A degenerate single-AS core exercises the no-clique and
	// single-provider-choice paths.
	g, err := Generate(GenConfig{
		Tier1: 1, Tier2: 3, Tier3: 10,
		Tier2PeerProb: 1.0, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 14 {
		t.Fatalf("generated %d ASes, want 14", g.Len())
	}
	cr := mustRoutes(t, g, Origin{ASN: 1})
	for _, asn := range g.ASNs() {
		if _, ok := cr.Route(asn); !ok {
			t.Errorf("AS%d unreachable from the tier-1 core", asn)
		}
	}
}
