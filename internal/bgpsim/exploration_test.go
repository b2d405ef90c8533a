package bgpsim

import (
	"math/rand"
	"net/netip"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

// Regression: explorationPath used to route v through any neighbor with
// a route, ignoring the Gao-Rexford export rule — a customer n whose
// best route went through a peer or provider would "export" it back up
// to v, producing a transient path with a valley that no real BGP
// update stream could carry.
func TestExplorationPathRespectsExportRules(t *testing.T) {
	// 1 ─ 2 tier-1 peers; both sell transit to 3; 5 is 2's customer
	// and the origin.
	g := topology.NewGraph()
	if err := g.AddPeering(1, 2); err != nil {
		t.Fatal(err)
	}
	for _, link := range [][2]bgp.ASN{{1, 3}, {2, 3}, {2, 5}} {
		if err := g.AddLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	p := netip.MustParsePrefix("10.0.0.0/8")
	sim, err := New(g, map[netip.Prefix]bgp.ASN{p: 5})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := g.Routes(nil, topology.Origin{ASN: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: AS3 holds a provider route via 2, AS1 a peer route via 2.
	if r, _ := rt.Route(3); r.Type != topology.RouteProvider || r.NextHop != 2 {
		t.Fatalf("AS3 route = %+v, want provider via AS2", r)
	}
	if r, _ := rt.Route(1); r.Type != topology.RoutePeer || r.NextHop != 2 {
		t.Fatalf("AS1 route = %+v, want peer via AS2", r)
	}

	// AS1's only alternate neighbor is its customer AS3, whose best
	// route is provider-learned: AS3 would never export it to AS1, so
	// no exploration path exists. The old code returned the valley
	// [1 3 2 5].
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if got := sim.explorationPath(g, rt, 1, rng, new([]bgp.ASN)); got != nil {
			t.Fatalf("explorationPath(AS1) = %v, want nil (customer would not export a provider route)", got)
		}
	}

	// AS3's alternate is its provider AS1, which exports everything to
	// customers: the up-across-down path [3 1 2 5] is legal.
	want := []bgp.ASN{3, 1, 2, 5}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := sim.explorationPath(g, rt, 3, rng, new([]bgp.ASN))
		if len(got) != len(want) {
			t.Fatalf("explorationPath(AS3) = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("explorationPath(AS3) = %v, want %v", got, want)
			}
		}
		if !g.ValleyFree(got) {
			t.Fatalf("explorationPath(AS3) = %v is not valley-free", got)
		}
	}
}
