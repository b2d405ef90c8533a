package asinfer

import (
	"math/rand"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

func TestInferEmptyCorpus(t *testing.T) {
	if _, err := Infer(nil, Options{}); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

func TestInferSimpleChain(t *testing.T) {
	// Paths through a simple hierarchy: 10 -> 1 (provider), 1 -> 20
	// (customer), observed from both directions. AS 1 has the highest
	// degree by construction.
	paths := [][]bgp.ASN{
		{10, 1, 20},
		{20, 1, 10},
		{10, 1, 30},
		{30, 1, 20},
	}
	// Tiny graphs have small degree spreads, so tighten the peering
	// ratio: summit-adjacent edges with a 3:1 degree gap are transit.
	res, err := Infer(paths, Options{PeerDegreeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rel, ok := res.Rel(10, 1); !ok || rel != RelCustomerProvider {
		t.Fatalf("Rel(10,1) = %v %v", rel, ok)
	}
	if rel, ok := res.Rel(1, 10); !ok || rel != RelProviderCustomer {
		t.Fatalf("Rel(1,10) = %v %v", rel, ok)
	}
	if _, ok := res.Rel(10, 20); ok {
		t.Fatal("non-adjacent pair reported")
	}
	if res.Degree[1] != 3 {
		t.Fatalf("degree[1] = %d", res.Degree[1])
	}
}

func TestInferPrependingIgnored(t *testing.T) {
	paths := [][]bgp.ASN{{10, 10, 1, 20}}
	res, err := Infer(paths, Options{PeerDegreeRatio: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Rel(10, 10); ok {
		t.Fatal("self adjacency recorded")
	}
	if rel, ok := res.Rel(10, 1); !ok || rel != RelCustomerProvider {
		t.Fatalf("Rel(10,1) = %v %v", rel, ok)
	}
}

func TestInferPeerByBalancedVotes(t *testing.T) {
	// Two mid-degree ASes 1 and 2 appear on both sides of each other's
	// summits; their degrees are equal so they classify as peers.
	paths := [][]bgp.ASN{
		{10, 1, 2, 20},
		{20, 2, 1, 10},
		{11, 1, 2, 21},
		{21, 2, 1, 11},
	}
	res, err := Infer(paths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel, ok := res.Rel(1, 2); !ok || rel != RelPeer {
		t.Fatalf("Rel(1,2) = %v %v", rel, ok)
	}
}

// recoverGroundTruth runs the full fidelity loop: generate a topology,
// compute policy-compliant paths, infer relationships, compare.
func TestInferRecoversGroundTruth(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 5, Tier2: 40, Tier3: 250,
		Tier2PeerProb: 0.08, MaxT2Providers: 3, MaxT3Providers: 3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Path corpus: routes from every AS toward 60 random destinations.
	rng := rand.New(rand.NewSource(3))
	asns := g.ASNs()
	var paths [][]bgp.ASN
	for d := 0; d < 60; d++ {
		dest := asns[rng.Intn(len(asns))]
		rt, err := g.Routes(nil, topology.Origin{ASN: dest})
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range asns {
			if path, ok := rt.PathFrom(src); ok && len(path) >= 2 {
				paths = append(paths, path)
			}
		}
	}
	res, err := Infer(paths, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var cpTotal, cpCorrect, cpWrongOrientation int
	var peerTotal, peerCorrect int
	for _, e := range res.Edges() {
		truth, ok := g.RelBetween(e.A, e.B)
		if !ok {
			t.Fatalf("inferred non-existent link %v-%v", e.A, e.B)
		}
		switch truth {
		case topology.RelProvider: // B... A's relationship to B: B is A's provider
			cpTotal++
			switch e.Rel {
			case RelCustomerProvider:
				cpCorrect++
			case RelProviderCustomer:
				cpWrongOrientation++
			}
		case topology.RelCustomer:
			cpTotal++
			switch e.Rel {
			case RelProviderCustomer:
				cpCorrect++
			case RelCustomerProvider:
				cpWrongOrientation++
			}
		case topology.RelPeer:
			peerTotal++
			if e.Rel == RelPeer {
				peerCorrect++
			}
		}
	}
	if cpTotal == 0 {
		t.Fatal("no customer-provider edges observed")
	}
	orientAcc := float64(cpCorrect) / float64(cpTotal)
	if orientAcc < 0.85 {
		t.Fatalf("customer-provider accuracy %.3f (correct %d, flipped %d, total %d)",
			orientAcc, cpCorrect, cpWrongOrientation, cpTotal)
	}
	// Orientation flips should be rare.
	if float64(cpWrongOrientation)/float64(cpTotal) > 0.05 {
		t.Fatalf("%d/%d edges inferred with inverted orientation", cpWrongOrientation, cpTotal)
	}
	// Peer recall is inherently weaker (Gao's phase 3); require a
	// non-trivial fraction when peering edges were observed at all.
	if peerTotal > 10 && float64(peerCorrect)/float64(peerTotal) < 0.3 {
		t.Fatalf("peer recall %.3f (%d/%d)", float64(peerCorrect)/float64(peerTotal), peerCorrect, peerTotal)
	}
}

func TestRelString(t *testing.T) {
	for rel, want := range map[Rel]string{
		RelUnknown: "unknown", RelPeer: "peer",
		RelCustomerProvider: "customer->provider",
		RelProviderCustomer: "provider->customer",
	} {
		if rel.String() != want {
			t.Fatalf("String(%d) = %q", rel, rel.String())
		}
	}
}
