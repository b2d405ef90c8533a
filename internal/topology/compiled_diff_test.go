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
				cr, err := g.Compiled().Routes(nil, filter, origins...)
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
