package topology

import (
	"fmt"
	"sort"

	"quicksand/internal/bgp"
	"quicksand/internal/par"
)

// GenConfig parameterises the synthetic Internet generator. The defaults
// produce a three-tier hierarchy in the style of measured AS topologies:
// a clique of transit-free tier-1 networks, a layer of regional tier-2
// providers with partial peering, and a large fringe of stub ASes.
type GenConfig struct {
	Tier1 int // number of tier-1 ASes (full peering clique)
	Tier2 int // number of tier-2 ASes
	Tier3 int // number of stub ASes

	// Tier2PeerProb is the probability that any given pair of tier-2
	// ASes peers.
	Tier2PeerProb float64
	// MaxT2Providers bounds how many tier-1/tier-2 providers a tier-2 AS
	// buys transit from (at least 1).
	MaxT2Providers int
	// MaxT3Providers bounds how many tier-2 providers a stub AS buys
	// transit from (at least 1).
	MaxT3Providers int

	Seed int64
}

// DefaultGenConfig returns the configuration used by the experiments: a
// roughly 1000-AS Internet with realistic hierarchy.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Tier1:          8,
		Tier2:          120,
		Tier3:          900,
		Tier2PeerProb:  0.06,
		MaxT2Providers: 3,
		MaxT3Providers: 3,
		Seed:           1,
	}
}

func (c GenConfig) validate() error {
	if c.Tier1 < 1 {
		return fmt.Errorf("topology: Tier1 must be >= 1, got %d", c.Tier1)
	}
	if c.Tier2 < 0 || c.Tier3 < 0 {
		return fmt.Errorf("topology: negative tier size")
	}
	if c.Tier2PeerProb < 0 || c.Tier2PeerProb > 1 {
		return fmt.Errorf("topology: Tier2PeerProb %v out of [0,1]", c.Tier2PeerProb)
	}
	if c.MaxT2Providers < 1 || c.MaxT3Providers < 1 {
		return fmt.Errorf("topology: provider bounds must be >= 1")
	}
	return nil
}

// Generate builds a synthetic Internet per cfg. The result is
// deterministic for a given seed and connected: every AS has a transit
// path to the tier-1 clique.
//
// ASNs are assigned sequentially: tier-1 from 1, tier-2 from 101, tier-3
// from 10001 (capacities permitting), so tiers are recognisable in
// experiment output.
func Generate(cfg GenConfig) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := par.NewRand(cfg.Seed)
	g := NewGraph()

	tier1 := make([]bgp.ASN, cfg.Tier1)
	for i := range tier1 {
		tier1[i] = bgp.ASN(1 + i)
		g.AddAS(tier1[i]).Tier = 1
	}
	// Tier-1 full peering clique.
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			if err := g.AddPeering(tier1[i], tier1[j]); err != nil {
				return nil, err
			}
		}
	}

	tier2 := make([]bgp.ASN, cfg.Tier2)
	for i := range tier2 {
		tier2[i] = bgp.ASN(101 + i)
		g.AddAS(tier2[i]).Tier = 2
	}
	// Each tier-2 AS buys transit from 1..MaxT2Providers providers drawn
	// mostly from tier-1, sometimes from earlier tier-2 ASes (regional
	// transit), producing multi-level customer cones.
	for i, asn := range tier2 {
		n := 1 + rng.Intn(cfg.MaxT2Providers)
		for k := 0; k < n; k++ {
			var prov bgp.ASN
			if i > 0 && rng.Float64() < 0.3 {
				prov = tier2[rng.Intn(i)]
			} else {
				prov = tier1[rng.Intn(len(tier1))]
			}
			if _, linked := g.RelBetween(prov, asn); linked {
				continue
			}
			if err := g.AddLink(prov, asn); err != nil {
				return nil, err
			}
		}
		// Guarantee at least one provider (the loop above can skip all
		// picks on relationship collisions).
		if len(g.AS(asn).Providers()) == 0 {
			if err := g.AddLink(tier1[rng.Intn(len(tier1))], asn); err != nil {
				return nil, err
			}
		}
	}
	// Tier-2 partial peering mesh.
	for i := 0; i < len(tier2); i++ {
		for j := i + 1; j < len(tier2); j++ {
			if rng.Float64() >= cfg.Tier2PeerProb {
				continue
			}
			if _, linked := g.RelBetween(tier2[i], tier2[j]); linked {
				continue
			}
			if err := g.AddPeering(tier2[i], tier2[j]); err != nil {
				return nil, err
			}
		}
	}

	// Stubs buy transit from tier-2 (weighted toward a few big hosters,
	// mirroring the relay concentration the paper measures).
	for i := 0; i < cfg.Tier3; i++ {
		asn := bgp.ASN(10001 + i)
		g.AddAS(asn).Tier = 3
		n := 1 + rng.Intn(cfg.MaxT3Providers)
		for k := 0; k < n; k++ {
			var prov bgp.ASN
			if len(tier2) == 0 {
				prov = tier1[rng.Intn(len(tier1))]
			} else {
				// Zipf-ish skew: square the uniform draw so low-index
				// tier-2 ASes attract more customers.
				f := rng.Float64()
				prov = tier2[int(f*f*float64(len(tier2)))]
			}
			if _, linked := g.RelBetween(prov, asn); linked {
				continue
			}
			if err := g.AddLink(prov, asn); err != nil {
				return nil, err
			}
		}
		if len(g.AS(asn).Providers()) == 0 {
			var prov bgp.ASN
			if len(tier2) > 0 {
				prov = tier2[rng.Intn(len(tier2))]
			} else {
				prov = tier1[rng.Intn(len(tier1))]
			}
			if err := g.AddLink(prov, asn); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// TierASNs returns the ASNs whose generator tier equals tier, ascending.
func (g *Graph) TierASNs(tier int) []bgp.ASN {
	var out []bgp.ASN
	for asn, a := range g.ases {
		if a.Tier == tier {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
