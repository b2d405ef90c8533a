package testkit

import (
	"fmt"
	"strings"
	"testing"

	"quicksand/internal/topology"
)

// powerLaw16K is the shared property-test instance: large enough that
// the degree tail carries real statistical weight, small enough to
// generate in well under a second.
func powerLaw16K(t *testing.T, seed int64) (*topology.Graph, topology.PowerLawConfig) {
	t.Helper()
	cfg := topology.DefaultPowerLawConfig(16000)
	cfg.Seed = seed
	// Leave the weight cap far above any realistic draw so the tail is a
	// pure Pareto law for the chi-square test.
	cfg.MaxWeight = 1e9
	g, err := topology.GeneratePowerLaw(cfg)
	if err != nil {
		t.Fatalf("GeneratePowerLaw: %v", err)
	}
	return g, cfg
}

func TestPowerLawConnected(t *testing.T) {
	g, _ := powerLaw16K(t, 11)
	if err := CheckConnected(g); err != nil {
		t.Error(err)
	}
}

func TestPowerLawTierInvariants(t *testing.T) {
	g, _ := powerLaw16K(t, 11)
	if err := CheckTierInvariants(g); err != nil {
		t.Error(err)
	}
}

func TestPowerLawDegreeTail(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		g, cfg := powerLaw16K(t, seed)
		if err := CheckPowerLawTail(g, cfg.Exponent, 32, 1e-3); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestPowerLawTailRejectsWrongExponent is the negative control: a graph
// generated with a much steeper attraction law must fail the chi-square
// against the default exponent, proving the test has power.
func TestPowerLawTailRejectsWrongExponent(t *testing.T) {
	cfg := topology.DefaultPowerLawConfig(16000)
	cfg.Seed = 11
	cfg.MaxWeight = 1e9
	cfg.Exponent = 3.2
	g, err := topology.GeneratePowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPowerLawTail(g, 2.1, 8, 1e-3); err == nil {
		t.Error("steep-exponent graph passed the chi-square against alpha=2.1")
	}
}

func TestCheckPowerLawTailErrors(t *testing.T) {
	g, _ := powerLaw16K(t, 11)
	if err := CheckPowerLawTail(g, 1.0, 32, 1e-3); err == nil {
		t.Error("alpha <= 1 accepted")
	}
	if err := CheckPowerLawTail(g, 2.1, 0, 1e-3); err == nil {
		t.Error("minDegree < 1 accepted")
	}
	if err := CheckPowerLawTail(g, 2.1, 1<<20, 1e-3); err == nil {
		t.Error("empty tail accepted")
	}
}

func TestCheckTierInvariantsCatchesViolations(t *testing.T) {
	// An orphaned non-core AS.
	g := topology.NewGraph()
	g.AddAS(1).Tier = 1
	g.AddAS(2).Tier = 2
	if err := CheckTierInvariants(g); err == nil {
		t.Error("orphan tier-2 AS accepted")
	}
	// A stub selling transit.
	g2 := topology.NewGraph()
	if err := g2.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	g2.AS(1).Tier = 3
	g2.AS(2).Tier = 3
	if err := CheckTierInvariants(g2); err == nil {
		t.Error("transit-selling stub accepted")
	}
	// A disconnected graph.
	g3 := topology.NewGraph()
	g3.AddAS(1).Tier = 1
	g3.AddAS(2).Tier = 1
	if err := CheckConnected(g3); err == nil {
		t.Error("disconnected graph accepted")
	}
}

// TestPowerLawDeterministicAtScale pins byte-identical generator output
// for a fixed seed across worker counts at property-suite scale.
func TestPowerLawDeterministicAtScale(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		cfg := topology.DefaultPowerLawConfig(16000)
		cfg.Seed = 21
		cfg.Workers = workers
		g, err := topology.GeneratePowerLaw(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Per AS in ASN order: tier and the three adjacency lists.
		var enc strings.Builder
		for _, asn := range g.ASNs() {
			a := g.AS(asn)
			fmt.Fprintln(&enc, asn, a.Tier, a.Customers(), a.Peers(), a.Providers())
		}
		if want == "" {
			want = enc.String()
		} else if enc.String() != want {
			t.Fatalf("workers=%d: graphs differ", workers)
		}
	}
}
