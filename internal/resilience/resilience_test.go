package resilience_test

import (
	"math"
	"strings"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/resilience"
	"quicksand/internal/testkit"
	"quicksand/internal/topology"
)

// tinyGraph builds a fixed ~30-AS three-tier topology small enough for
// the brute-force oracle over every (client, guard) pair.
func tinyGraph(t *testing.T, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 2, Tier2: 6, Tier3: 22,
		Tier2PeerProb: 0.2, MaxT2Providers: 2, MaxT3Providers: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pickGuards deterministically spreads k guard ASes over the graph.
func pickGuards(g *topology.Graph, k int) []bgp.ASN {
	asns := g.ASNs()
	guards := make([]bgp.ASN, 0, k)
	for i := 0; i < k; i++ {
		guards = append(guards, asns[(i*len(asns))/k+len(asns)/(2*k)])
	}
	return guards
}

// TestExactMatchesOracleTiny checks the sharded engine against the
// brute-force oracle on every (client, guard) pair of a tiny graph.
func TestExactMatchesOracleTiny(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := tinyGraph(t, seed)
		if err := testkit.CheckResilienceExact(g, pickGuards(g, 3), nil, 2); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestExactMatchesOracleRandom runs the differential on larger random
// topologies with a bounded client sample (the oracle recomputes every
// attacker table per pair, so full coverage squares the graph size).
func TestExactMatchesOracleRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, err := testkit.RandomTopology(seed)
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		rng := testkit.Rand(seed, 77)
		clients := make([]bgp.ASN, 0, 8)
		for len(clients) < 8 {
			clients = append(clients, asns[rng.Intn(len(asns))])
		}
		if err := testkit.CheckResilienceExact(g, pickGuards(g, 2), clients, 3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSampledWithinBound compares the sampled estimator against the
// exact matrix: the reported 95% bound must hold on (at least) 90% of
// pairs, and the bound itself must match the finite-population formula.
func TestSampledWithinBound(t *testing.T) {
	g, err := testkit.RandomTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	guards := pickGuards(g, 4)
	exact, err := resilience.Compute(g, resilience.Config{Guards: guards}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact.ErrorBound95() != 0 {
		t.Fatalf("full enumeration not marked exact (bound %v)", exact.ErrorBound95())
	}

	n := g.Compiled().Len()
	budget := 40
	if budget >= n-1 {
		t.Fatalf("graph too small (%d ASes) for a sampled run", n)
	}
	sampled, err := resilience.Compute(g, resilience.Config{Guards: guards, Attackers: budget, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.ErrorBound95() == 0 {
		t.Fatal("sampled matrix claims exactness")
	}
	pop := n - 1
	wantBound := 1.96 * math.Sqrt(0.25/float64(budget)) *
		math.Sqrt(float64(pop-budget)/float64(pop-1))
	if math.Abs(sampled.ErrorBound95()-wantBound) > 1e-12 {
		t.Fatalf("bound %v, want %v", sampled.ErrorBound95(), wantBound)
	}
	if sampled.Attackers() != budget {
		t.Fatalf("Attackers() = %d, want %d", sampled.Attackers(), budget)
	}

	within, total := 0, 0
	clients := g.ASNs()
	for _, guard := range guards {
		for _, client := range clients {
			rs, _ := sampled.R(client, guard)
			re, _ := exact.R(client, guard)
			if math.Abs(rs-re) <= sampled.ErrorBound95() {
				within++
			}
			total++
		}
	}
	if frac := float64(within) / float64(total); frac < 0.9 {
		t.Fatalf("only %.3f of pairs within the 95%% bound", frac)
	}
}

// TestWorkerInvariance pins the determinism contract: exact and sampled
// matrices are bit-identical for any worker count.
func TestWorkerInvariance(t *testing.T) {
	g, err := testkit.RandomTopology(5)
	if err != nil {
		t.Fatal(err)
	}
	guards := pickGuards(g, 5)
	clients := g.ASNs()
	for _, cfg := range []resilience.Config{
		{Guards: guards},
		{Guards: guards, Attackers: 25, Seed: 3},
	} {
		cfg.Workers = 1
		a, err := resilience.Compute(g, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 7
		b, err := resilience.Compute(g, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, guard := range guards {
			for _, client := range clients {
				ra, _ := a.R(client, guard)
				rb, _ := b.R(client, guard)
				if ra != rb {
					t.Fatalf("exact=%v: R(%v, %v) differs: %v vs %v", a.ErrorBound95() == 0, client, guard, ra, rb)
				}
			}
		}
		if a.Tables() != b.Tables() {
			t.Fatalf("table counts differ: %d vs %d", a.Tables(), b.Tables())
		}
	}
}

// TestMatrixAccessors pins the bookkeeping the study and the bench
// report read off the matrix.
func TestMatrixAccessors(t *testing.T) {
	g := tinyGraph(t, 2)
	guards := pickGuards(g, 3)
	mx, err := resilience.Compute(g, resilience.Config{Guards: guards}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Compiled().Len()
	if mx.Pairs() != n*len(guards) {
		t.Fatalf("Pairs() = %d, want %d", mx.Pairs(), n*len(guards))
	}
	if mx.Tables() != len(guards)*(n-1) {
		t.Fatalf("Tables() = %d, want %d", mx.Tables(), len(guards)*(n-1))
	}
	for _, guard := range guards {
		for _, client := range g.ASNs() {
			r, ok := mx.R(client, guard)
			if !ok || r < 0 || r > 1 {
				t.Fatalf("R(%v, %v) = %v, %v", client, guard, r, ok)
			}
		}
	}
	if _, ok := mx.R(g.ASNs()[0], bgp.ASN(999999)); ok {
		t.Fatal("R reported ok for an unconfigured guard")
	}
	if _, ok := mx.R(bgp.ASN(999999), guards[0]); ok {
		t.Fatal("R reported ok for an unknown client")
	}
}

// TestConfigValidation pins the error cases.
func TestConfigValidation(t *testing.T) {
	g := tinyGraph(t, 3)
	guard := g.ASNs()[0]
	cases := []struct {
		name string
		cfg  resilience.Config
		want string
	}{
		{"no guards", resilience.Config{}, "no guard"},
		{"unknown guard", resilience.Config{Guards: []bgp.ASN{999999}}, "not in graph"},
		{"duplicate guard", resilience.Config{Guards: []bgp.ASN{guard, guard}}, "duplicate"},
	}
	for _, tc := range cases {
		if _, err := resilience.Compute(g, tc.cfg, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	tiny := topology.NewGraph()
	tiny.AddAS(1)
	tiny.AddAS(2)
	if _, err := resilience.Compute(tiny, resilience.Config{Guards: []bgp.ASN{1}}, nil); err == nil {
		t.Error("2-AS graph accepted")
	}
}
