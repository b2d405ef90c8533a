package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func mustPowerLaw(t testing.TB, cfg PowerLawConfig) *Graph {
	t.Helper()
	g, err := GeneratePowerLaw(cfg)
	if err != nil {
		t.Fatalf("GeneratePowerLaw(%+v): %v", cfg, err)
	}
	return g
}

func TestPowerLawValidate(t *testing.T) {
	base := DefaultPowerLawConfig(500)
	cases := []struct {
		name string
		mod  func(*PowerLawConfig)
	}{
		{"tier1 zero", func(c *PowerLawConfig) { c.Tier1 = 0 }},
		{"n too small", func(c *PowerLawConfig) { c.N = c.Tier1 + 1 }},
		{"transit frac zero", func(c *PowerLawConfig) { c.TransitFrac = 0 }},
		{"transit frac over one", func(c *PowerLawConfig) { c.TransitFrac = 1.5 }},
		{"exponent at one", func(c *PowerLawConfig) { c.Exponent = 1 }},
		{"negative max weight", func(c *PowerLawConfig) { c.MaxWeight = -1 }},
		{"max providers zero", func(c *PowerLawConfig) { c.MaxProviders = 0 }},
		{"negative peer mean", func(c *PowerLawConfig) { c.PeerMean = -0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mod(&cfg)
			if _, err := GeneratePowerLaw(cfg); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
}

func TestDefaultPowerLawConfigScalesTier1(t *testing.T) {
	if got := DefaultPowerLawConfig(50).Tier1; got != 4 {
		t.Errorf("n=50: Tier1 = %d, want 4", got)
	}
	if got := DefaultPowerLawConfig(500).Tier1; got != 8 {
		t.Errorf("n=500: Tier1 = %d, want 8", got)
	}
	if got := DefaultPowerLawConfig(5000).Tier1; got != 16 {
		t.Errorf("n=5000: Tier1 = %d, want 16", got)
	}
}

// canonical renders g per AS in ascending ASN order: its ASN, tier and
// three adjacency lists. Two graphs are structurally identical iff their
// renderings are equal.
func canonical(g *Graph) string {
	var b strings.Builder
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		fmt.Fprintln(&b, asn, a.Tier, a.Customers(), a.Peers(), a.Providers())
	}
	return b.String()
}

func TestPowerLawDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultPowerLawConfig(3000)
	cfg.Seed = 99
	var want string
	for _, workers := range []int{1, 3, 8} {
		cfg.Workers = workers
		g := mustPowerLaw(t, cfg)
		if g.Len() != cfg.N {
			t.Fatalf("workers=%d: Len = %d, want %d", workers, g.Len(), cfg.N)
		}
		enc := canonical(g)
		if want == "" {
			want = enc
			continue
		}
		if enc != want {
			t.Fatalf("workers=%d: canonical encoding differs from workers=1", workers)
		}
	}

	// A different seed must give a different graph.
	cfg.Seed = 100
	if canonical(mustPowerLaw(t, cfg)) == want {
		t.Fatal("seed change did not change the graph")
	}
}

func TestPowerLawStructure(t *testing.T) {
	cfg := DefaultPowerLawConfig(800)
	g := mustPowerLaw(t, cfg)

	wantCorePeerings := cfg.Tier1 * (cfg.Tier1 - 1) / 2
	corePeerings := 0
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		switch a.Tier {
		case 1:
			if len(a.Providers()) != 0 {
				t.Errorf("core AS %v has providers %v", asn, a.Providers())
			}
			for _, p := range a.Peers() {
				if int(p) <= cfg.Tier1 {
					corePeerings++
				}
			}
		case 2, 3:
			if len(a.Providers()) == 0 {
				t.Errorf("tier-%d AS %v has no provider", a.Tier, asn)
			}
			if a.Tier == 3 && len(a.Customers()) != 0 {
				t.Errorf("stub %v has customers %v", asn, a.Customers())
			}
		default:
			t.Errorf("AS %v has unexpected tier %d", asn, a.Tier)
		}
	}
	if corePeerings/2 != wantCorePeerings {
		t.Errorf("core peerings = %d, want full clique %d", corePeerings/2, wantCorePeerings)
	}
	if l := g.Links(); l < cfg.N {
		t.Errorf("Links() = %d, suspiciously sparse for %d ASes", l, cfg.N)
	}
}

func TestParetoBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		w := pareto(rng, 2.1, 50)
		if w < 1 || w > 50 {
			t.Fatalf("pareto draw %v outside [1, 50]", w)
		}
	}
}

func TestWeightedPickProportional(t *testing.T) {
	// cum encodes weights {1, 10}: index 1 should win ~10x more often.
	cum := []float64{0, 1, 11}
	rng := rand.New(rand.NewSource(2))
	counts := [2]int{}
	for i := 0; i < 20000; i++ {
		j := weightedPick(rng, cum)
		if j < 0 || j > 1 {
			t.Fatalf("weightedPick out of range: %d", j)
		}
		counts[j]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 8 || ratio > 12.5 {
		t.Errorf("weight-10 picked %.1fx weight-1, want ~10x", ratio)
	}
}
