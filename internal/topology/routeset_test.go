package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"quicksand/internal/bgp"
)

// assertTablesMatchFresh pins the delta-recompilation contract: every
// table a RouteSet maintains must equal a full from-scratch computation
// on the current graph.
func assertTablesMatchFresh(t testing.TB, rs *RouteSet, tag string) {
	t.Helper()
	for i, d := range rs.Dests() {
		want, err := rs.Graph().Routes(nil, Origin{ASN: d})
		if err != nil {
			t.Fatalf("%s: fresh compute for dest %v: %v", tag, d, err)
		}
		got := rs.TableAt(i)
		if got.Len() != want.Len() {
			t.Fatalf("%s: dest %v: table size %d, fresh %d", tag, d, got.Len(), want.Len())
		}
		for id := 0; id < got.Len(); id++ {
			if got.At(id) != want.At(id) {
				t.Fatalf("%s: dest %v: AS %v: delta table %+v, fresh %+v",
					tag, d, got.ASN(id), got.At(id), want.At(id))
			}
		}
	}
}

func TestNewRouteSetErrors(t *testing.T) {
	g := mustPowerLaw(t, DefaultPowerLawConfig(60))
	if _, err := NewRouteSet(g, nil, 1); err == nil {
		t.Error("empty destination list accepted")
	}
	if _, err := NewRouteSet(g, []bgp.ASN{9999}, 1); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, err := NewRouteSet(g, []bgp.ASN{1, 2, 1}, 1); err == nil {
		t.Error("duplicate destination accepted")
	}
}

func TestRouteSetAccessors(t *testing.T) {
	g := mustPowerLaw(t, DefaultPowerLawConfig(60))
	dests := []bgp.ASN{1, 30, 60}
	rs, err := NewRouteSet(g, dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Graph() != g {
		t.Error("Graph() is not the constructor graph")
	}
	if got := rs.Dests(); len(got) != 3 || got[0] != 1 || got[2] != 60 {
		t.Errorf("Dests() = %v, want %v", got, dests)
	}
	tbl, ok := rs.Table(30)
	if !ok || tbl != rs.TableAt(1) {
		t.Error("Table(30) did not return the tracked table")
	}
	if _, ok := rs.Table(31); ok {
		t.Error("Table(31) returned a table for an untracked destination")
	}
	if r, ok := tbl.Route(30); !ok || r.Type != RouteOrigin {
		t.Errorf("destination's own route = %+v, want origin", r)
	}
	if rs.MemoryBytes() < 3*60*routeBytes {
		t.Errorf("MemoryBytes() = %d, below the bare table footprint", rs.MemoryBytes())
	}
	tables := 0
	for i := range rs.Dests() {
		tables += rs.TableAt(i).MemoryBytes()
	}
	if scratch := rs.MemoryBytes() - tables - g.Compiled().MemoryBytes(); scratch <= 0 {
		t.Errorf("MemoryBytes() counts %d bytes of worker scratch after computing tables, want > 0", scratch)
	}
	assertTablesMatchFresh(t, rs, "fresh route set")
}

func TestApplyErrors(t *testing.T) {
	g := mustPowerLaw(t, DefaultPowerLawConfig(60))
	rs, err := NewRouteSet(g, []bgp.ASN{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    Mutation
	}{
		{"unknown AS", Mutation{Op: MutRemoveLink, A: 9999, B: 1}},
		{"no link to remove", Mutation{Op: MutRemoveLink, A: 1, B: 60}},
		{"duplicate link", Mutation{Op: MutAddLink, A: 1, B: 2}}, // core clique peering exists
		{"duplicate peering", Mutation{Op: MutAddPeering, A: 1, B: 2}},
		{"unknown op", Mutation{Op: MutationOp(9), A: 1, B: 2}},
	}
	for _, tc := range cases {
		if _, err := rs.Apply(tc.m); err == nil {
			t.Errorf("%s: Apply(%v %v-%v) succeeded, want error", tc.name, tc.m.Op, tc.m.A, tc.m.B)
		}
	}
	// Failed mutations must leave the tables untouched and consistent.
	assertTablesMatchFresh(t, rs, "after rejected mutations")
}

func TestMutationOpString(t *testing.T) {
	for op, want := range map[MutationOp]string{
		MutRemoveLink:  "remove-link",
		MutAddLink:     "add-link",
		MutAddPeering:  "add-peering",
		MutationOp(42): "MutationOp(42)",
	} {
		if got := op.String(); got != want {
			t.Errorf("MutationOp(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}

// TestDeltaRecompileRandomChurn drives a paper-scale power-law graph
// through random link churn and pins, after every single mutation, that
// the incrementally-maintained tables are bit-identical to a full
// recomputation. It also checks that the churn exercised all three
// delta paths: skipped destinations, O(degree) local repairs, and full
// refixpoints.
func TestDeltaRecompileRandomChurn(t *testing.T) {
	cfg := DefaultPowerLawConfig(400)
	cfg.Seed = 7
	g := mustPowerLaw(t, cfg)
	dests := []bgp.ASN{1, 5, 9, 25, 60, 200, 399, 400}
	rs, err := NewRouteSet(g, dests, 2)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	asns := g.ASNs()
	var total ApplyStats
	applied := 0
	for applied < 120 {
		a := asns[rng.Intn(len(asns))]
		b := asns[rng.Intn(len(asns))]
		if a == b {
			continue
		}
		var m Mutation
		if _, linked := g.RelBetween(a, b); linked {
			m = Mutation{Op: MutRemoveLink, A: a, B: b}
		} else if rng.Intn(2) == 0 {
			// Lower ASN provides: generator ASNs ascend core -> transit ->
			// stub, so this orientation keeps the customer DAG acyclic.
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			m = Mutation{Op: MutAddLink, A: lo, B: hi}
		} else {
			m = Mutation{Op: MutAddPeering, A: a, B: b}
		}
		st, err := rs.Apply(m)
		if err != nil {
			t.Fatalf("Apply(%v %v-%v): %v", m.Op, m.A, m.B, err)
		}
		if st.Repaired+st.Refixpointed != st.Affected {
			t.Fatalf("Apply(%v %v-%v): stats %+v do not add up", m.Op, m.A, m.B, st)
		}
		total.Affected += st.Affected
		total.Repaired += st.Repaired
		total.Refixpointed += st.Refixpointed
		applied++
		assertTablesMatchFresh(t, rs, fmt.Sprintf("after mutation %d (%v %v-%v)", applied, m.Op, m.A, m.B))
	}

	if total.Affected >= applied*len(dests) {
		t.Errorf("no destination was ever skipped: affected %d of %d", total.Affected, applied*len(dests))
	}
	if total.Repaired == 0 {
		t.Error("churn exercised no local repairs")
	}

	// Random churn lands mostly on stubs, whose changes are all locally
	// repairable; force the refixpoint path by cutting a link that an AS
	// with customers routes across (its route is visible downstream, so
	// a local repair would be unsound and Apply must refixpoint).
	tbl := rs.TableAt(0)
	forced := false
	for id := 0; id < tbl.Len() && !forced; id++ {
		x := tbl.ASN(id)
		r := tbl.At(id)
		if r.Type == RouteNone || r.Type == RouteOrigin || len(g.AS(x).Customers()) == 0 {
			continue
		}
		st, err := rs.Apply(Mutation{Op: MutRemoveLink, A: x, B: r.NextHop})
		if err != nil {
			t.Fatalf("forced remove %v-%v: %v", x, r.NextHop, err)
		}
		if st.Refixpointed == 0 {
			t.Errorf("cutting %v-%v under AS %v with customers refixpointed nothing (stats %+v)", x, r.NextHop, x, st)
		}
		total.Refixpointed += st.Refixpointed
		assertTablesMatchFresh(t, rs, fmt.Sprintf("after forced cut %v-%v", x, r.NextHop))
		forced = true
	}
	if !forced {
		t.Error("found no customer-bearing AS to force a refixpoint through")
	}
	t.Logf("churn: %d mutations, %d affected tables (%d repaired, %d refixpointed) of %d computed naively",
		applied, total.Affected, total.Repaired, total.Refixpointed, applied*len(dests))
}

// TestApplyFlapRestoresTables pins that a remove/re-add flap of the same
// link returns every table to its pre-flap state.
func TestApplyFlapRestoresTables(t *testing.T) {
	g := mustPowerLaw(t, DefaultPowerLawConfig(200))
	dests := []bgp.ASN{1, 50, 200}
	rs, err := NewRouteSet(g, dests, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]Route, len(dests))
	for i := range dests {
		before[i] = append([]Route(nil), rs.TableAt(i).routes...)
	}

	// Flap the last stub's first provider link.
	stub := bgp.ASN(200)
	prov := g.AS(stub).Providers()[0]
	if _, err := rs.Apply(Mutation{Op: MutRemoveLink, A: stub, B: prov}); err != nil {
		t.Fatal(err)
	}
	assertTablesMatchFresh(t, rs, "after remove")
	if _, err := rs.Apply(Mutation{Op: MutAddLink, A: prov, B: stub}); err != nil {
		t.Fatal(err)
	}
	assertTablesMatchFresh(t, rs, "after re-add")
	for i := range dests {
		for id, r := range rs.TableAt(i).routes {
			if r != before[i][id] {
				t.Fatalf("dest %v: AS %v: route %+v != pre-flap %+v",
					dests[i], rs.TableAt(i).ASN(id), r, before[i][id])
			}
		}
	}
}

func TestApplyStatsString(t *testing.T) {
	// ApplyStats is a plain struct; make sure %+v stays readable in logs.
	s := fmt.Sprintf("%+v", ApplyStats{Affected: 3, Repaired: 2, Refixpointed: 1})
	for _, want := range []string{"Affected:3", "Repaired:2", "Refixpointed:1"} {
		if !strings.Contains(s, want) {
			t.Errorf("ApplyStats rendering %q missing %q", s, want)
		}
	}
}
