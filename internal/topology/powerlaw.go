package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"quicksand/internal/bgp"
	"quicksand/internal/par"
)

// PowerLawConfig parameterises the Internet-scale generator: a
// CAIDA-shaped topology with a transit-free core clique, a power-law
// transit layer, and a large stub fringe, sized by a single node count
// that scales to the full measured Internet (~73,000 ASes).
//
// Where GenConfig enumerates tier sizes by hand, this generator is
// driven by the degree distribution: every transit AS draws a
// customer-attraction weight from a Pareto law with the configured
// Exponent, and customers attach preferentially, so the realised
// customer-degree distribution follows a power law with the same
// exponent — the defining property of the measured AS graph.
type PowerLawConfig struct {
	// N is the total number of ASes.
	N int
	// Tier1 is the size of the transit-free core; its members peer in a
	// full clique and never buy transit.
	Tier1 int
	// TransitFrac is the fraction of non-core ASes that sell transit
	// (the tier-2 layer). CAIDA snapshots put roughly 4-6% of ASes in
	// the customer-serving role.
	TransitFrac float64
	// Exponent is the power-law exponent α of the transit
	// customer-degree tail, P(k) ∝ k^-α. Measured AS topologies sit
	// near 2.1.
	Exponent float64
	// MaxWeight caps the drawn customer-attraction weight, bounding the
	// largest hub relative to the smallest transit AS (0 means N/8).
	MaxWeight float64
	// MaxProviders bounds the multihoming of every non-core AS: each
	// buys transit from 1..MaxProviders providers.
	MaxProviders int
	// PeerMean is the mean number of peerings each transit AS
	// originates with other transit ASes (preferentially attached, so
	// hubs also peer more).
	PeerMean float64
	// Seed makes the output deterministic; Workers only parallelises
	// stub attachment and never changes the result (every stub derives
	// its own RNG from the seed, exactly like experiment trials).
	Seed    int64
	Workers int
}

// DefaultPowerLawConfig returns the CAIDA-shaped defaults for n ASes;
// n = 73000 is the full-Internet instance, the scale at which single-box
// Gao-Rexford studies over the real CAIDA topology operate.
func DefaultPowerLawConfig(n int) PowerLawConfig {
	t1 := 16
	switch {
	case n < 100:
		t1 = 4
	case n < 2000:
		t1 = 8
	}
	return PowerLawConfig{
		N:            n,
		Tier1:        t1,
		TransitFrac:  0.05,
		Exponent:     2.1,
		MaxProviders: 3,
		PeerMean:     1.5,
		Seed:         1,
	}
}

func (c PowerLawConfig) validate() error {
	if c.Tier1 < 1 {
		return fmt.Errorf("topology: Tier1 must be >= 1, got %d", c.Tier1)
	}
	if c.N < c.Tier1+2 {
		return fmt.Errorf("topology: N=%d too small for Tier1=%d (need >= Tier1+2)", c.N, c.Tier1)
	}
	if c.TransitFrac <= 0 || c.TransitFrac > 1 {
		return fmt.Errorf("topology: TransitFrac %v out of (0,1]", c.TransitFrac)
	}
	if c.Exponent <= 1 {
		return fmt.Errorf("topology: Exponent must be > 1, got %v", c.Exponent)
	}
	if c.MaxWeight < 0 {
		return fmt.Errorf("topology: negative MaxWeight")
	}
	if c.MaxProviders < 1 {
		return fmt.Errorf("topology: MaxProviders must be >= 1, got %d", c.MaxProviders)
	}
	if c.PeerMean < 0 {
		return fmt.Errorf("topology: negative PeerMean")
	}
	return nil
}

// pareto draws from a Pareto(α) law on [1, max]: the inverse CDF of
// p(w) ∝ w^-α, which is what gives transit degrees their power-law
// tail.
func pareto(rng *rand.Rand, alpha, max float64) float64 {
	w := math.Pow(1-rng.Float64(), -1/(alpha-1))
	if w > max {
		return max
	}
	return w
}

// weightedPick returns the index drawn with probability proportional to
// the weights whose prefix sums are cum (cum[0]=0, cum[i] = w_0+...+w_{i-1}).
func weightedPick(rng *rand.Rand, cum []float64) int {
	t := rng.Float64() * cum[len(cum)-1]
	// First index whose cumulative sum exceeds t.
	i := sort.SearchFloat64s(cum[1:], t)
	if i < len(cum)-1 && cum[1+i] == t {
		i++ // SearchFloat64s finds >=; an exact hit belongs to the next bucket
	}
	if i >= len(cum)-1 {
		i = len(cum) - 2
	}
	return i
}

// GeneratePowerLaw builds a CAIDA-shaped topology per cfg: ASNs are
// assigned contiguously from 1 (core first, then transit, then stubs),
// the core is a full peering clique, transit ASes multihome into the
// core and earlier transit, stubs attach to transit ASes
// preferentially by Pareto-drawn weight, and transit ASes peer
// preferentially among themselves. The result is connected, its
// customer-provider digraph is acyclic, and the output is byte-for-byte
// identical for a fixed seed at any Workers value.
func GeneratePowerLaw(cfg PowerLawConfig) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxW := cfg.MaxWeight
	if maxW == 0 {
		maxW = float64(cfg.N) / 8
	}
	if maxW < 1 {
		maxW = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := NewGraph()

	// Core clique.
	tier1 := make([]bgp.ASN, cfg.Tier1)
	for i := range tier1 {
		tier1[i] = bgp.ASN(1 + i)
		g.AddAS(tier1[i]).Tier = 1
	}
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			if err := g.AddPeering(tier1[i], tier1[j]); err != nil {
				return nil, err
			}
		}
	}

	// Transit layer: Pareto customer-attraction weights and their
	// prefix sums (cum[i] sums the first i weights, so cum[:i+1]
	// restricts preferential draws to earlier transit ASes).
	m := int(cfg.TransitFrac*float64(cfg.N-cfg.Tier1) + 0.5)
	if m < 1 {
		m = 1
	}
	if m > cfg.N-cfg.Tier1 {
		m = cfg.N - cfg.Tier1
	}
	transit := make([]bgp.ASN, m)
	weight := make([]float64, m)
	cum := make([]float64, m+1)
	for i := range transit {
		transit[i] = bgp.ASN(cfg.Tier1 + 1 + i)
		g.AddAS(transit[i]).Tier = 2
		weight[i] = pareto(rng, cfg.Exponent, maxW)
		cum[i+1] = cum[i] + weight[i]
	}

	// Transit multihoming: mostly into the core, sometimes into an
	// earlier (preferentially heavier) transit AS, building multi-level
	// customer cones. Providers always precede customers in creation
	// order, so customer-provider edges can never form a cycle.
	for i, asn := range transit {
		n := 1 + rng.Intn(cfg.MaxProviders)
		for k := 0; k < n; k++ {
			var prov bgp.ASN
			if i > 0 && rng.Float64() < 0.3 {
				prov = transit[weightedPick(rng, cum[:i+1])]
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
		if len(g.AS(asn).Providers()) == 0 {
			// All picks collided; scan the core from a random offset
			// for a free slot (one always exists — a core AS linked to
			// asn would have been linked as a provider above).
			start := rng.Intn(len(tier1))
			for j := range tier1 {
				prov := tier1[(start+j)%len(tier1)]
				if _, linked := g.RelBetween(prov, asn); !linked {
					if err := g.AddLink(prov, asn); err != nil {
						return nil, err
					}
					break
				}
			}
		}
	}

	// Transit peering mesh, preferentially attached: heavier transit
	// ASes accumulate more peerings, mirroring measured IXP behaviour.
	whole, frac := math.Modf(cfg.PeerMean)
	for i, asn := range transit {
		n := int(whole)
		if rng.Float64() < frac {
			n++
		}
		for k := 0; k < n; k++ {
			for attempt := 0; attempt < 4; attempt++ {
				j := weightedPick(rng, cum)
				if j == i {
					continue
				}
				if _, linked := g.RelBetween(asn, transit[j]); linked {
					continue
				}
				if err := g.AddPeering(asn, transit[j]); err != nil {
					return nil, err
				}
				break
			}
		}
	}

	// Stub fringe: every remaining AS multihomes into the transit layer
	// preferentially by weight. The draws fan out over the worker pool —
	// each stub derives its own RNG from (Seed, index), so the picks
	// (and therefore the graph) are identical for any worker count —
	// and are applied sequentially in index order.
	stubs := cfg.N - cfg.Tier1 - m
	picks, err := par.Map(cfg.Workers, stubs, func(i int) ([]int32, error) {
		trng := rand.New(rand.NewSource(par.TrialSeed(cfg.Seed, i)))
		n := 1 + trng.Intn(cfg.MaxProviders)
		out := make([]int32, 0, n)
		for k := 0; k < n; k++ {
			for attempt := 0; ; attempt++ {
				j := int32(weightedPick(trng, cum))
				dup := false
				for _, prev := range out {
					if prev == j {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, j)
					break
				}
				if attempt >= 4 {
					break // tolerate fewer providers on repeated collisions
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, ps := range picks {
		asn := bgp.ASN(cfg.Tier1 + m + 1 + i)
		g.AddAS(asn).Tier = 3
		for _, j := range ps {
			if err := g.AddLink(transit[j], asn); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Links returns the number of adjacencies (each link counted once).
func (g *Graph) Links() int {
	d := 0
	for _, a := range g.ases {
		d += a.Degree()
	}
	return d / 2
}
