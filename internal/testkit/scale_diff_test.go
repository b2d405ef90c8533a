package testkit

import (
	"fmt"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

// TestScaledDifferential is the subsampled stand-in for an oracle at
// 73K, where none can run: on power-law topologies of 2K-8K ASes —
// the same generator, scaled down — the compiled CSR engine and the
// naive fixpoint oracle must agree bit for bit on every route. It runs
// under -race in CI.
func TestScaledDifferential(t *testing.T) {
	sizes := []int{2000, 5000, 8000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			cfg := topology.DefaultPowerLawConfig(n)
			cfg.Seed = int64(n)
			g, err := topology.GeneratePowerLaw(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Destinations at every tier: core, transit, stub.
			for _, dest := range []bgp.ASN{1, bgp.ASN(cfg.Tier1 + 2), bgp.ASN(n)} {
				if err := CheckRoutesAgainstOracle(g, nil, topology.Origin{ASN: dest}); err != nil {
					t.Errorf("dest %v: %v", dest, err)
				}
			}
		})
	}
}

// TestScaledDifferentialDeltaRecompile extends the differential across
// churn: after every mutation a RouteSet applies, its delta-maintained
// tables must match the compiled engine and the naive oracle, each
// computed from scratch.
func TestScaledDifferentialDeltaRecompile(t *testing.T) {
	cfg := topology.DefaultPowerLawConfig(2000)
	cfg.Seed = 4
	g, err := topology.GeneratePowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dests := []bgp.ASN{1, bgp.ASN(cfg.Tier1 + 2), 2000}
	rs, err := topology.NewRouteSet(g, dests, 2)
	if err != nil {
		t.Fatal(err)
	}

	// A flap of a stub's provider link and a cut high in the hierarchy.
	stub := bgp.ASN(1999)
	prov := g.AS(stub).Providers()[0]
	muts := []topology.Mutation{
		{Op: topology.MutRemoveLink, A: stub, B: prov},
		{Op: topology.MutAddLink, A: prov, B: stub},
		{Op: topology.MutRemoveLink, A: 1, B: 2},
		{Op: topology.MutAddPeering, A: 1, B: 2},
	}
	for _, m := range muts {
		if _, err := rs.Apply(m); err != nil {
			t.Fatalf("Apply(%v %v-%v): %v", m.Op, m.A, m.B, err)
		}
		for i, d := range dests {
			got := rs.TableAt(i).Table()
			compiled, err := g.Routes(nil, topology.Origin{ASN: d})
			if err != nil {
				t.Fatalf("compiled engine, dest %v: %v", d, err)
			}
			oracle, err := NaiveRoutes(g, nil, topology.Origin{ASN: d})
			if err != nil {
				t.Fatalf("oracle, dest %v: %v", d, err)
			}
			for name, fresh := range map[string]topology.RouteTable{"compiled engine": compiled.Table(), "oracle": oracle} {
				if diffs := DiffRoutes(got, fresh); len(diffs) > 0 {
					t.Errorf("after %v %v-%v, dest %v vs %s: %d diffs, first %v",
						m.Op, m.A, m.B, d, name, len(diffs), diffs[0])
				}
			}
		}
	}
}
