package topology_test

// The compiled engine's differential tests. They live in the external
// test package because their reference is testkit.NaiveRoutes, and
// testkit imports topology.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/testkit"
	"quicksand/internal/topology"
)

// diffTables fails when a compiled result and the oracle's table for the
// same origins disagree anywhere.
func diffTables(t *testing.T, cr *topology.CompiledRoutes, want topology.RouteTable) {
	t.Helper()
	if diffs := testkit.DiffRoutes(cr.Table(), want); len(diffs) > 0 {
		t.Fatalf("compiled table disagrees with the oracle at %d ASes, first %v", len(diffs), diffs[0])
	}
}

func oracle(t *testing.T, g *topology.Graph, filter topology.ImportFilter, origins ...topology.Origin) topology.RouteTable {
	t.Helper()
	rt, err := testkit.NaiveRoutes(g, filter, origins...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestCompiledMatchesOracle pins the compiled engine bit-for-bit against
// the oracle across generated topologies: a single origin, a two-origin
// hijack, announcement scoping (withhold-from and announce-only), each
// with and without an ROV import filter. It is the one compiled-vs-oracle
// differential; FuzzComputeRoutes widens it to arbitrary small graphs.
func TestCompiledMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, err := topology.Generate(topology.GenConfig{
			Tier1: 3, Tier2: 25, Tier3: 150,
			Tier2PeerProb: 0.1, MaxT2Providers: 3, MaxT3Providers: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		all := g.ASNs()
		pick := func() bgp.ASN { return all[rng.Intn(len(all))] }

		cases := make([][]topology.Origin, 0, 8)
		v, a := pick(), pick()
		for a == v {
			a = pick()
		}
		cases = append(cases,
			[]topology.Origin{{ASN: v}},
			[]topology.Origin{{ASN: v}, {ASN: a}}, // hijack: two origins compete
			[]topology.Origin{{ASN: v}, {ASN: a, WithholdFrom: map[bgp.ASN]bool{g.Neighbors(a)[0]: true}}},
		)
		if nbs := g.Neighbors(a); len(nbs) > 0 {
			only := map[bgp.ASN]bool{nbs[rng.Intn(len(nbs))]: true}
			cases = append(cases, []topology.Origin{{ASN: v}, {ASN: a, AnnounceOnly: only}})
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
			for _, filter := range []topology.ImportFilter{nil, rov} {
				cr, err := g.Routes(filter, origins...)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("seed%d/case%d/filtered=%v", seed, ci, filter != nil), func(t *testing.T) {
					diffTables(t, cr, oracle(t, g, filter, origins...))
				})
			}
		}
	}
}

// TestCompiledDeltaRecompile mutates the graph the way the churn
// simulator does and checks that the delta-recompiled snapshot routes
// like the oracle toward one destination and like a from-scratch compile
// (a clone's) toward every destination — a stale or missing adjacency
// row changes the one-hop route toward the neighbour it names.
func TestCompiledDeltaRecompile(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{
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
		cr, err := g.Routes(nil, topology.Origin{ASN: dst})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		diffTables(t, cr, oracle(t, g, nil, topology.Origin{ASN: dst}))
		full := g.Clone()
		for _, d := range g.ASNs() {
			delta, err := g.Routes(nil, topology.Origin{ASN: d})
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			want, err := full.Routes(nil, topology.Origin{ASN: d})
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if diffs := testkit.DiffRoutes(delta.Table(), want.Table()); len(diffs) > 0 {
				t.Fatalf("%s: dest %v: delta recompile diverges from full compile: %v", step, d, diffs[0])
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
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 3, Tier2: 15, Tier3: 80,
		Tier2PeerProb: 0.08, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	all := g.ASNs()
	var s topology.Scratch
	var cr *topology.CompiledRoutes
	for i := 0; i < 50; i++ {
		origins := []topology.Origin{{ASN: all[rng.Intn(len(all))]}}
		if i%3 == 1 {
			o2 := all[rng.Intn(len(all))]
			if o2 != origins[0].ASN {
				origins = append(origins, topology.Origin{ASN: o2})
			}
		}
		cr, err = g.RoutesInto(cr, &s, nil, origins...)
		if err != nil {
			t.Fatal(err)
		}
		diffTables(t, cr, oracle(t, g, nil, origins...))
	}
}

// TestCompiledRoutesAccessors covers the table-view methods against the
// oracle's table.
func TestCompiledRoutesAccessors(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 2, Tier2: 10, Tier3: 40,
		Tier2PeerProb: 0.1, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := g.TierASNs(3)[3]
	cr, err := g.Routes(nil, topology.Origin{ASN: dst})
	if err != nil {
		t.Fatal(err)
	}
	rt := oracle(t, g, nil, topology.Origin{ASN: dst})
	diffTables(t, cr, rt)
	for _, src := range g.ASNs() {
		// The oracle's path is its table walked hop by hop.
		want := []bgp.ASN{src}
		for r := rt[src]; r.Type != topology.RouteOrigin; r = rt[r.NextHop] {
			want = append(want, r.NextHop)
		}
		got, ok := cr.PathFrom(src)
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("PathFrom(%v) = %v,%v, want %v", src, got, ok, want)
		}
		if ap, _ := cr.ASPathFrom(src); ap.String() != bgp.Sequence(want...).String() {
			t.Fatalf("ASPathFrom(%v) = %v, want %v", src, ap, want)
		}
	}
	if _, ok := cr.Route(bgp.ASN(424242)); ok {
		t.Fatal("Route() of an unknown ASN reported ok")
	}
	if id, ok := g.Compiled().ID(dst); !ok || cr.ASN(int(id)) != dst {
		t.Fatal("ID/ASN interning round trip failed")
	}
}

// TestRouteCache covers sharing, invalidation on mutation, and the
// PathFrom convenience.
func TestRouteCache(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 2, Tier2: 10, Tier3: 50,
		Tier2PeerProb: 0.1, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := topology.NewRouteCache(g)
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
	diffTables(t, cr3, oracle(t, g, nil, topology.Origin{ASN: dst}))
	if _, err := rc.Routes(bgp.ASN(5555555)); err == nil {
		t.Fatal("unknown destination: want error")
	}
	if _, _, err := rc.PathFrom(src, bgp.ASN(5555555)); err == nil {
		t.Fatal("PathFrom to unknown destination: want error")
	}
}

// TestCustomerlessOffers pins phase 3's fold for ASes without customers,
// which take the minimum of their providers' offers as a rank key
// instead of updating a route per offer. Each hand-built case names the
// AS whose route the fold decides and the route it must end with, and
// the whole table is diffed against the oracle; the last case reuses one
// Scratch across graphs of different sizes, so a key left over from an
// earlier run shows as a wrong route.
func TestCustomerlessOffers(t *testing.T) {
	// build returns a graph of provider->customer links and peerings.
	build := func(t *testing.T, links, peers [][2]bgp.ASN) *topology.Graph {
		t.Helper()
		g := topology.NewGraph()
		for _, l := range links {
			if err := g.AddLink(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range peers {
			if err := g.AddPeering(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	// Stub 100 buys transit from 10 and 20, which each sell to one
	// more stub: 11 under 10, 21 under 20.
	twoProviders := [][2]bgp.ASN{{10, 11}, {10, 100}, {20, 21}, {20, 100}}
	var s topology.Scratch
	var cr *topology.CompiledRoutes
	check := func(t *testing.T, g *topology.Graph, filter topology.ImportFilter, at bgp.ASN, want topology.Route, origins ...topology.Origin) {
		t.Helper()
		var err error
		if cr, err = g.RoutesInto(cr, &s, filter, origins...); err != nil {
			t.Fatal(err)
		}
		if got, _ := cr.Route(at); got != want {
			t.Errorf("route at %v = %+v, want %+v", at, got, want)
		}
		diffTables(t, cr, oracle(t, g, filter, origins...))
	}
	provider := func(nh bgp.ASN, l int32, origin bgp.ASN) topology.Route {
		return topology.Route{Type: topology.RouteProvider, NextHop: nh, PathLen: l, Origin: origin}
	}

	t.Run("filter-rejects-lower-provider", func(t *testing.T) {
		// 10 offers the attacker 11's route and 20 the victim 21's, both
		// at length 2; ROV at 100 drops the lower next hop's offer.
		g := build(t, twoProviders, nil)
		rov := func(at, origin bgp.ASN) bool { return at != 100 || origin == 21 }
		check(t, g, nil, 100, provider(10, 2, 11), topology.Origin{ASN: 21}, topology.Origin{ASN: 11})
		check(t, g, rov, 100, provider(20, 2, 21), topology.Origin{ASN: 21}, topology.Origin{ASN: 11})
	})
	t.Run("customerless-attacker-origin", func(t *testing.T) {
		// Attacker 100 is offered the victim 11's route by its provider
		// 10 and must keep originating.
		g := build(t, twoProviders, nil)
		origin := topology.Route{Type: topology.RouteOrigin, Origin: 100}
		check(t, g, nil, 100, origin, topology.Origin{ASN: 11}, topology.Origin{ASN: 100})
	})
	t.Run("peer-beats-shorter-provider", func(t *testing.T) {
		// 100 hears the victim 21 from its provider 20 at length 2 and
		// at length 3 from its peer 30, whose customer 31 sells to 21.
		g := build(t, [][2]bgp.ASN{{20, 21}, {20, 100}, {30, 31}, {31, 21}}, [][2]bgp.ASN{{30, 100}})
		peer := topology.Route{Type: topology.RoutePeer, NextHop: 30, PathLen: 3, Origin: 21}
		check(t, g, nil, 100, peer, topology.Origin{ASN: 21})
	})
	t.Run("announce-only-skips-lower-provider", func(t *testing.T) {
		// Both of 100's providers originate; 10 announces to 11 alone.
		g := build(t, twoProviders, nil)
		only := topology.Origin{ASN: 10, AnnounceOnly: map[bgp.ASN]bool{11: true}}
		check(t, g, nil, 100, provider(10, 1, 10), topology.Origin{ASN: 10}, topology.Origin{ASN: 20})
		check(t, g, nil, 100, provider(20, 1, 20), only, topology.Origin{ASN: 20})
	})
	t.Run("scratch-across-sizes", func(t *testing.T) {
		large, err := topology.Generate(topology.GenConfig{
			Tier1: 3, Tier2: 25, Tier3: 150,
			Tier2PeerProb: 0.1, MaxT2Providers: 3, MaxT3Providers: 2, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		small := build(t, twoProviders, nil)
		victim := large.TierASNs(3)[0]
		for _, g := range []*topology.Graph{large, small, large} {
			if g == small {
				check(t, g, nil, 100, provider(10, 2, 11), topology.Origin{ASN: 11})
				continue
			}
			origin := topology.Route{Type: topology.RouteOrigin, Origin: victim}
			check(t, g, nil, victim, origin, topology.Origin{ASN: victim})
		}
	})
}
