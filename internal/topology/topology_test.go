package topology

import (
	"math/rand"
	"testing"

	"quicksand/internal/bgp"
)

// diamond builds the classic four-AS diamond:
//
//	  1 (tier-1)
//	 / \
//	2   3     (2, 3 customers of 1)
//	 \ /
//	  4       (4 customer of both 2 and 3)
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for _, link := range [][2]bgp.ASN{{1, 2}, {1, 3}, {2, 4}, {3, 4}} {
		if err := g.AddLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// mustRoutes computes the table toward origins with the shipped engine.
func mustRoutes(t *testing.T, g *Graph, origins ...Origin) *CompiledRoutes {
	t.Helper()
	cr, err := g.Routes(nil, origins...)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

func TestAddLinkAndRelBetween(t *testing.T) {
	g := diamond(t)
	if r, ok := g.RelBetween(1, 2); !ok || r != RelCustomer {
		t.Fatalf("RelBetween(1,2) = %v %v", r, ok)
	}
	if r, ok := g.RelBetween(2, 1); !ok || r != RelProvider {
		t.Fatalf("RelBetween(2,1) = %v %v", r, ok)
	}
	if _, ok := g.RelBetween(2, 3); ok {
		t.Fatal("2 and 3 should not be adjacent")
	}
}

func TestAddLinkRejectsDuplicates(t *testing.T) {
	g := diamond(t)
	if err := g.AddLink(1, 2); err == nil {
		t.Fatal("duplicate link accepted")
	}
	if err := g.AddPeering(1, 2); err == nil {
		t.Fatal("peering over existing link accepted")
	}
	if err := g.AddLink(5, 5); err == nil {
		t.Fatal("self link accepted")
	}
}

func TestAddPeering(t *testing.T) {
	g := NewGraph()
	if err := g.AddPeering(10, 20); err != nil {
		t.Fatal(err)
	}
	if r, ok := g.RelBetween(10, 20); !ok || r != RelPeer {
		t.Fatalf("RelBetween = %v %v", r, ok)
	}
	if r, ok := g.RelBetween(20, 10); !ok || r != RelPeer {
		t.Fatalf("reverse RelBetween = %v %v", r, ok)
	}
}

func TestRemoveLink(t *testing.T) {
	g := diamond(t)
	if !g.RemoveLink(2, 4) {
		t.Fatal("RemoveLink returned false")
	}
	if _, ok := g.RelBetween(2, 4); ok {
		t.Fatal("link still present")
	}
	if g.RemoveLink(2, 4) {
		t.Fatal("double remove returned true")
	}
	// 4 must now route via 3 only.
	cr := mustRoutes(t, g, Origin{ASN: 4})
	path, ok := cr.PathFrom(2)
	if !ok {
		t.Fatal("no path from 2")
	}
	want := []bgp.ASN{2, 1, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := diamond(t)
	n := g.Neighbors(1)
	if len(n) != 2 || n[0] != 2 || n[1] != 3 {
		t.Fatalf("Neighbors(1) = %v", n)
	}
	if g.Neighbors(99) != nil {
		t.Fatal("missing AS should have nil neighbors")
	}
}

func TestComputeRoutesDiamond(t *testing.T) {
	g := diamond(t)
	rt := mustRoutes(t, g, Origin{ASN: 4}).Table()
	if rt[4].Type != RouteOrigin {
		t.Fatalf("origin route = %+v", rt[4])
	}
	// 2 and 3 learn customer routes directly from 4.
	for _, asn := range []bgp.ASN{2, 3} {
		if rt[asn].Type != RouteCustomer || rt[asn].NextHop != 4 || rt[asn].PathLen != 1 {
			t.Fatalf("rt[%d] = %+v", asn, rt[asn])
		}
	}
	// 1 learns a customer route via the lowest-numbered child (2).
	if rt[1].Type != RouteCustomer || rt[1].NextHop != 2 || rt[1].PathLen != 2 {
		t.Fatalf("rt[1] = %+v", rt[1])
	}
}

func TestCustomerPreferredOverPeerAndProvider(t *testing.T) {
	// 10 has: customer 20 (3 hops to dest), peer 30 (1 hop), provider 40
	// (1 hop). Customer route must win despite being longer.
	g := NewGraph()
	// Destination is 99.
	// Customer chain: 10 -> 20 -> 21 -> 99 (20, 21 are a customer chain).
	if err := g.AddLink(10, 20); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(20, 21); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(21, 99); err != nil {
		t.Fatal(err)
	}
	// Peer 30 with a direct customer route to 99.
	if err := g.AddPeering(10, 30); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(30, 99); err != nil {
		t.Fatal(err)
	}
	// Provider 40 with a direct customer route to 99.
	if err := g.AddLink(40, 10); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(40, 99); err != nil {
		t.Fatal(err)
	}
	rt := mustRoutes(t, g, Origin{ASN: 99}).Table()
	if rt[10].Type != RouteCustomer || rt[10].NextHop != 20 || rt[10].PathLen != 3 {
		t.Fatalf("rt[10] = %+v, want customer route via 20", rt[10])
	}
}

func TestPeerPreferredOverProvider(t *testing.T) {
	g := NewGraph()
	// 10's peer 30 reaches dest 99 (customer); 10's provider 40 reaches
	// 99 directly too. Peer must win.
	if err := g.AddPeering(10, 30); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(30, 99); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(40, 10); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(40, 99); err != nil {
		t.Fatal(err)
	}
	rt := mustRoutes(t, g, Origin{ASN: 99}).Table()
	if rt[10].Type != RoutePeer || rt[10].NextHop != 30 {
		t.Fatalf("rt[10] = %+v, want peer route via 30", rt[10])
	}
}

func TestNoValleyTransit(t *testing.T) {
	// Two stubs sharing no provider chain must be unreachable through a
	// common peer-less valley: 20 and 30 are both customers of nothing
	// shared; 20-10, 30-11, and 10, 11 are NOT connected.
	g := NewGraph()
	if err := g.AddLink(10, 20); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(11, 30); err != nil {
		t.Fatal(err)
	}
	rt := mustRoutes(t, g, Origin{ASN: 30}).Table()
	if _, ok := rt[20]; ok {
		t.Fatalf("20 should have no route to 30, got %+v", rt[20])
	}
	if _, ok := rt[10]; ok {
		t.Fatalf("10 should have no route to 30, got %+v", rt[10])
	}
}

func TestPeerRoutesNotTransitive(t *testing.T) {
	// a - b - c all peers in a line; dest is customer of c. a must NOT
	// reach dest through two peering hops.
	g := NewGraph()
	if err := g.AddPeering(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeering(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(3, 99); err != nil {
		t.Fatal(err)
	}
	rt := mustRoutes(t, g, Origin{ASN: 99}).Table()
	if _, ok := rt[1]; ok {
		t.Fatalf("1 should have no route (valley), got %+v", rt[1])
	}
	if rt[2].Type != RoutePeer {
		t.Fatalf("rt[2] = %+v", rt[2])
	}
}

func TestMultiOriginHijackSplitsInternet(t *testing.T) {
	// Diamond with origin 4; attacker at 3's side announces too.
	g := diamond(t)
	// Give 3 a second customer 5 (the attacker).
	if err := g.AddLink(3, 5); err != nil {
		t.Fatal(err)
	}
	rt := mustRoutes(t, g, Origin{ASN: 4}, Origin{ASN: 5}).Table()
	// 3 hears 4 and 5 both as customers at length 1; tiebreak lowest
	// next hop -> 4.
	if rt[3].Origin != 4 {
		t.Fatalf("rt[3] = %+v, want origin 4", rt[3])
	}
	// 2 hears customer 4 directly.
	if rt[2].Origin != 4 {
		t.Fatalf("rt[2] = %+v", rt[2])
	}
	// Both origins keep themselves.
	if rt[4].Type != RouteOrigin || rt[5].Type != RouteOrigin {
		t.Fatal("origins lost their own routes")
	}
}

func TestWithholdFrom(t *testing.T) {
	g := diamond(t)
	// Origin 4 withholds from 2: 2 must route via 1 -> 3 -> 4.
	cr := mustRoutes(t, g, Origin{ASN: 4, WithholdFrom: map[bgp.ASN]bool{2: true}})
	path, ok := cr.PathFrom(2)
	if !ok {
		t.Fatal("2 unreachable")
	}
	want := []bgp.ASN{2, 1, 3, 4}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestAnnounceOnly(t *testing.T) {
	g := diamond(t)
	// Origin 4 announces only to 3.
	cr := mustRoutes(t, g, Origin{ASN: 4, AnnounceOnly: map[bgp.ASN]bool{3: true}})
	rt := cr.Table()
	if rt[3].NextHop != 4 {
		t.Fatalf("rt[3] = %+v", rt[3])
	}
	// 2 must reach 4 the long way around.
	path, ok := cr.PathFrom(2)
	if !ok {
		t.Fatal("2 unreachable")
	}
	if len(path) != 4 {
		t.Fatalf("path = %v", path)
	}
}

func TestPathFromNoRoute(t *testing.T) {
	g := diamond(t)
	g.AddAS(77) // isolated
	cr := mustRoutes(t, g, Origin{ASN: 4})
	if _, ok := cr.PathFrom(77); ok {
		t.Fatal("isolated AS has a path")
	}
}

func TestASPathFrom(t *testing.T) {
	g := diamond(t)
	cr := mustRoutes(t, g, Origin{ASN: 4})
	p, ok := cr.ASPathFrom(1)
	if !ok {
		t.Fatal("no path")
	}
	if p.String() != "1 2 4" {
		t.Fatalf("ASPath = %q", p.String())
	}
	if o, _ := p.Origin(); o != 4 {
		t.Fatalf("origin = %v", o)
	}
}

func TestValleyFreeChecker(t *testing.T) {
	g := diamond(t)
	if !g.ValleyFree([]bgp.ASN{2, 1, 3, 4}) {
		t.Fatal("up-down path rejected")
	}
	// 2 -> 4 -> 3 is customer then provider: a valley.
	if g.ValleyFree([]bgp.ASN{2, 4, 3}) {
		t.Fatal("valley accepted")
	}
	// Non-adjacent hop.
	if g.ValleyFree([]bgp.ASN{2, 3}) {
		t.Fatal("non-adjacent hop accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.RemoveLink(2, 4)
	if _, ok := g.RelBetween(2, 4); !ok {
		t.Fatal("clone mutation leaked into original")
	}
	if c.Len() != g.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), g.Len())
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := GenConfig{Tier1: 4, Tier2: 20, Tier3: 100, Tier2PeerProb: 0.1,
		MaxT2Providers: 2, MaxT3Providers: 2, Seed: 7}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 124 {
		t.Fatalf("Len = %d, want 124", g.Len())
	}
	if n := len(g.TierASNs(1)); n != 4 {
		t.Fatalf("tier1 count = %d", n)
	}
	if n := len(g.TierASNs(3)); n != 100 {
		t.Fatalf("tier3 count = %d", n)
	}
	// Tier-1 clique: every pair peers.
	t1 := g.TierASNs(1)
	for i := range t1 {
		for j := i + 1; j < len(t1); j++ {
			if r, ok := g.RelBetween(t1[i], t1[j]); !ok || r != RelPeer {
				t.Fatalf("tier1 %v-%v not peering", t1[i], t1[j])
			}
		}
	}
	// Every non-tier-1 AS has at least one provider.
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		if a.Tier != 1 && len(a.Providers()) == 0 {
			t.Fatalf("%v has no provider", asn)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier2, cfg.Tier3 = 30, 100
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range g1.ASNs() {
		a, b := g1.AS(asn), g2.AS(asn)
		if b == nil || len(a.Providers()) != len(b.Providers()) ||
			len(a.Peers()) != len(b.Peers()) || len(a.Customers()) != len(b.Customers()) {
			t.Fatalf("graphs differ at %v", asn)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultGenConfig()
	bad.Tier1 = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("Tier1=0 accepted")
	}
	bad = DefaultGenConfig()
	bad.Tier2PeerProb = 2
	if _, err := Generate(bad); err == nil {
		t.Fatal("bad peer prob accepted")
	}
	bad = DefaultGenConfig()
	bad.MaxT3Providers = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("MaxT3Providers=0 accepted")
	}
}

// Property: on generated graphs, every AS reaches a random destination,
// every computed path is valley-free, and path lengths are consistent.
func TestRoutesValleyFreeProperty(t *testing.T) {
	cfg := GenConfig{Tier1: 5, Tier2: 40, Tier3: 200, Tier2PeerProb: 0.08,
		MaxT2Providers: 3, MaxT3Providers: 3, Seed: 11}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	asns := g.ASNs()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		dest := asns[rng.Intn(len(asns))]
		cr := mustRoutes(t, g, Origin{ASN: dest})
		rt := cr.Table()
		if len(rt) != g.Len() {
			t.Fatalf("dest %v: only %d/%d ASes routed", dest, len(rt), g.Len())
		}
		for _, src := range asns {
			path, ok := cr.PathFrom(src)
			if !ok {
				t.Fatalf("no path %v -> %v", src, dest)
			}
			if len(path)-1 != int(rt[src].PathLen) {
				t.Fatalf("path length mismatch at %v: %v vs %d", src, path, rt[src].PathLen)
			}
			if !g.ValleyFree(path) {
				t.Fatalf("path %v not valley-free", path)
			}
			if path[len(path)-1] != dest {
				t.Fatalf("path %v does not end at %v", path, dest)
			}
		}
	}
}

// Property: route preference is respected — no AS with a customer route
// to the destination has a better (shorter customer) option through a
// neighbor it ignored of the same class.
func TestRouteShortestWithinClass(t *testing.T) {
	cfg := GenConfig{Tier1: 4, Tier2: 30, Tier3: 120, Tier2PeerProb: 0.1,
		MaxT2Providers: 2, MaxT3Providers: 2, Seed: 3}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dest := g.TierASNs(3)[0]
	rt := mustRoutes(t, g, Origin{ASN: dest}).Table()
	for asn, r := range rt {
		if r.Type != RouteCustomer {
			continue
		}
		for _, c := range g.AS(asn).Customers() {
			rc, ok := rt[c]
			if !ok || (rc.Type != RouteCustomer && rc.Type != RouteOrigin) {
				continue
			}
			if rc.PathLen+1 < r.PathLen {
				t.Fatalf("%v chose customer route len %d but customer %v offers len %d",
					asn, r.PathLen, c, rc.PathLen+1)
			}
		}
	}
}

// Property: under a two-origin announcement (the hijack configuration),
// every routed AS commits to exactly one origin, its path is valley-free,
// and the path actually ends at the chosen origin.
func TestMultiOriginValleyFreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		cfg := GenConfig{
			Tier1: 3 + rng.Intn(3), Tier2: 15 + rng.Intn(20), Tier3: 60 + rng.Intn(80),
			Tier2PeerProb:  0.05 + rng.Float64()*0.1,
			MaxT2Providers: 2, MaxT3Providers: 3,
			Seed: rng.Int63(),
		}
		g, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		v := asns[rng.Intn(len(asns))]
		a := asns[rng.Intn(len(asns))]
		if v == a {
			continue
		}
		cr := mustRoutes(t, g, Origin{ASN: v}, Origin{ASN: a})
		rt := cr.Table()
		for _, src := range asns {
			r, ok := rt[src]
			if !ok {
				t.Fatalf("trial %d: %v has no route in a connected topology", trial, src)
			}
			if r.Origin != v && r.Origin != a {
				t.Fatalf("trial %d: %v routes to unknown origin %v", trial, src, r.Origin)
			}
			path, ok := cr.PathFrom(src)
			if !ok {
				t.Fatalf("trial %d: no path from %v", trial, src)
			}
			if path[len(path)-1] != r.Origin {
				t.Fatalf("trial %d: path %v does not end at chosen origin %v", trial, path, r.Origin)
			}
			if !g.ValleyFree(path) {
				t.Fatalf("trial %d: path %v not valley-free", trial, path)
			}
		}
		// Origins always keep themselves.
		if rt[v].Origin != v || rt[a].Origin != a {
			t.Fatalf("trial %d: an origin lost its own prefix", trial)
		}
	}
}
