package resilience_test

import (
	"math"
	"math/rand"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/par"
	"quicksand/internal/resilience"
	"quicksand/internal/topology"
)

// TestResil73KEstimatorAgreement checks the sampled estimator's 95%
// bound is honest at Internet scale: two independent 96-attacker
// samples over 12 guards of the 73K-AS topology must agree within
// their combined bounds on at least 0.9 of all (client, guard) pairs.
// It skips where the 73K tests of internal/topology skip: -short, and
// -race (instrumentation slows it ~20x).
func TestResil73KEstimatorAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 73K-AS gate in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping 73K-AS gate under -race")
	}
	const seed, ases, guardN, attackers = 1, 73000, 12, 96
	cfg := topology.DefaultPowerLawConfig(ases)
	cfg.Seed = seed
	g, err := topology.GeneratePowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != ases {
		t.Fatalf("topology has %d ASes, want %d", g.Len(), ases)
	}

	// Guard destinations: a deterministic uniform sample.
	asns := g.ASNs()
	rng := rand.New(rand.NewSource(par.TrialSeed(seed, 3<<20)))
	seen := make(map[bgp.ASN]bool, guardN)
	var guards []bgp.ASN
	for len(guards) < guardN {
		if d := asns[rng.Intn(len(asns))]; !seen[d] {
			seen[d] = true
			guards = append(guards, d)
		}
	}
	sample := func(block int) *resilience.Matrix {
		m, err := resilience.Compute(g, resilience.Config{
			Guards: guards, Attackers: attackers, Seed: par.TrialSeed(seed, block),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := sample(4<<20), sample(5<<20)

	combined := a.ErrorBound95() + b.ErrorBound95()
	within, total := 0, 0
	var maxDev float64
	clients := g.ASNs()
	for _, guard := range guards {
		for _, client := range clients {
			ra, _ := a.R(client, guard)
			rb, _ := b.R(client, guard)
			d := math.Abs(ra - rb)
			if d <= combined {
				within++
			}
			maxDev = max(maxDev, d)
			total++
		}
	}
	if frac := float64(within) / float64(total); frac < 0.9 {
		t.Errorf("agreement %.4f below 0.9 (bound ±%.3f, max dev %.3f)", frac, combined, maxDev)
	}
}
