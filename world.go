// Package quicksand is a from-scratch reproduction of "Anonymity on
// QuickSand: Using BGP to Compromise Tor" (Vanbever, Li, Rexford, Mittal;
// HotNets 2014).
//
// The package wires the substrates under internal/ — a Gao-Rexford
// AS-level Internet, a BGP-4/MRT stack, an interdomain churn simulator, a
// Tor consensus and path-selection model, a TCP-over-Tor traffic
// simulator, and byte-count correlation — into the paper's experiments:
//
//	E1   dataset/methodology statistics (§4)
//	F2L  AS concentration of guard/exit relays (Figure 2, left)
//	F2R  asymmetric traffic analysis feasibility (Figure 2, right)
//	F3L  Tor-prefix path-change ratio CCDF (Figure 3, left)
//	F3R  extra-AS exposure CCDF (Figure 3, right)
//	E2   anonymity degradation model (§3.1)
//	E3   prefix hijack study (§3.2)
//	E4   prefix interception + asymmetric deanonymization (§3.2–3.3)
//	E5   countermeasure evaluation (§5)
//
// Start with BuildWorld, then call the Run* methods; every experiment is
// deterministic for a given seed.
package quicksand

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"quicksand/internal/analysis"
	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/par"
	"quicksand/internal/tcpsim"
	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
)

// WorldConfig parameterises the synthetic Internet an experiment runs on.
type WorldConfig struct {
	Seed int64

	// Topology generates the AS graph.
	Topology topology.GenConfig

	// Consensus generates the relay population. Its HostASes field is
	// filled by BuildWorld from the topology's stub ASes and does not
	// need to be set.
	Consensus torconsensus.GenConfig

	// BackgroundPrefixes is the number of ordinary (non-relay) prefixes
	// announced alongside the Tor prefixes; Figure 3 (left) normalises
	// Tor-prefix churn by the per-session median over all prefixes, so
	// the background population defines the baseline.
	BackgroundPrefixes int
}

// DefaultWorldConfig is the paper-scale world: a ~1000-AS Internet, the
// July 2014 relay population (4586 relays over 1251 guard/exit prefixes
// announced by 650 ASes) and 5000 background prefixes.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		Seed:               1,
		Topology:           topology.DefaultGenConfig(),
		Consensus:          torconsensus.DefaultGenConfig(nil),
		BackgroundPrefixes: 5000,
	}
}

// SmallWorldConfig is a reduced world for tests and quick demos: ~240
// ASes, 500 relays, 600 background prefixes.
func SmallWorldConfig() WorldConfig {
	return WorldConfig{
		Seed: 1,
		Topology: topology.GenConfig{
			Tier1: 4, Tier2: 30, Tier3: 200,
			Tier2PeerProb: 0.08, MaxT2Providers: 2, MaxT3Providers: 3, Seed: 1,
		},
		Consensus: torconsensus.GenConfig{
			Total: 500, Guards: 200, Exits: 100, Both: 40,
			GuardExitPrefixes:  140,
			MaxRelaysPerPrefix: 20,
			MiddleOnlyPrefixes: 30,
			NumHostASes:        80,
			Seed:               1,
			ValidAfter:         torconsensus.DefaultGenConfig(nil).ValidAfter,
		},
		BackgroundPrefixes: 600,
	}
}

// World is a fully built synthetic Internet: topology, relay population,
// and the complete prefix origination table (relay-hosting prefixes plus
// background prefixes).
type World struct {
	Topology  *topology.Graph
	Consensus *torconsensus.Consensus
	Hosting   *torconsensus.Hosting

	// Origins maps every announced prefix (relay-hosting and background)
	// to its origin AS; this is the BGP simulator's input.
	Origins map[netip.Prefix]bgp.ASN

	// RIB is the longest-prefix-match view of Origins.
	RIB *analysis.RIB

	// TorPrefixes are the guard/exit-hosting prefixes derived from the
	// consensus via the RIB (the paper's §4 mapping).
	TorPrefixes map[netip.Prefix]*analysis.TorPrefix

	routeCacheOnce sync.Once
	routeCache     *topology.RouteCache
}

// RouteCache returns the world's shared per-destination route cache,
// created on first use. E5's static oracle and E7's rotation study draw
// from the same cache, so a destination's table is computed once per
// topology version no matter which experiment asks first.
func (w *World) RouteCache() *topology.RouteCache {
	w.routeCacheOnce.Do(func() {
		w.routeCache = topology.NewRouteCache(w.Topology)
	})
	return w.routeCache
}

// GuardASes returns the distinct ASes hosting Guard-flagged relays,
// ascending — the destination set of the resilience matrix.
func (w *World) GuardASes() []bgp.ASN {
	seen := make(map[bgp.ASN]bool)
	var out []bgp.ASN
	for _, r := range w.Consensus.Guards() {
		if asn, ok := w.RelayAS(r.Addr); ok && !seen[asn] {
			seen[asn] = true
			out = append(out, asn)
		}
	}
	slices.Sort(out)
	return out
}

// TorPrefixSet returns the Tor prefixes as a set, the shape the churn
// analyses take.
func (w *World) TorPrefixSet() map[netip.Prefix]bool {
	s := make(map[netip.Prefix]bool, len(w.TorPrefixes))
	for p := range w.TorPrefixes {
		s[p] = true
	}
	return s
}

// TorWatchlist returns the Tor prefixes with their legitimate origins,
// the watchlist of the §5 monitor.
func (w *World) TorWatchlist() map[netip.Prefix]bgp.ASN {
	watch := make(map[netip.Prefix]bgp.ASN, len(w.TorPrefixes))
	for p := range w.TorPrefixes {
		watch[p] = w.Origins[p]
	}
	return watch
}

// SortedTorPrefixes returns the Tor prefixes by address, then length:
// the canonical order studies index when they pick attack targets.
func (w *World) SortedTorPrefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(w.TorPrefixes))
	for p := range w.TorPrefixes {
		out = append(out, p)
	}
	slices.SortFunc(out, bgp.ComparePrefix)
	return out
}

// RelayAS maps a relay (or any) address to its origin AS via the RIB.
func (w *World) RelayAS(addr netip.Addr) (bgp.ASN, bool) {
	_, asn, ok := w.RIB.LongestMatch(addr)
	return asn, ok
}

// BuildWorld generates a synthetic Internet per cfg: the AS topology, the
// relay population hosted in stub ASes, and background prefix
// announcements. Deterministic for a given config.
func BuildWorld(cfg WorldConfig) (*World, error) {
	g, err := topology.Generate(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("quicksand: topology: %w", err)
	}
	rng := par.NewRand(cfg.Seed)

	// Relay hosting ASes come from the stub tier (hosting providers are
	// edge networks), shuffled deterministically.
	stubs := g.TierASNs(3)
	if len(stubs) == 0 {
		stubs = g.ASNs()
	}
	consCfg := cfg.Consensus
	if consCfg.HostASes == nil {
		if len(stubs) < consCfg.NumHostASes {
			return nil, fmt.Errorf("quicksand: %d stub ASes cannot host %d relay ASes",
				len(stubs), consCfg.NumHostASes)
		}
		consCfg.HostASes = stubs
	}
	cons, hosting, err := torconsensus.GenerateConsensus(consCfg)
	if err != nil {
		return nil, fmt.Errorf("quicksand: consensus: %w", err)
	}

	// Origination table: relay prefixes plus background prefixes in a
	// disjoint address range (128/2), originated by random ASes.
	origins := make(map[netip.Prefix]bgp.ASN, len(hosting.Prefixes)+cfg.BackgroundPrefixes)
	for p, asn := range hosting.Prefixes {
		origins[p] = asn
	}
	all := g.ASNs()
	for i := 0; i < cfg.BackgroundPrefixes; i++ {
		base := uint32(128<<24) + uint32(i)<<10 // /22-spaced blocks from 128.0.0.0
		bits := 17 + rng.Intn(6)
		if bits > 22 {
			bits = 22
		}
		addr := netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base)})
		p, err := addr.Prefix(bits)
		if err != nil {
			return nil, err
		}
		if _, taken := origins[p]; taken {
			continue
		}
		origins[p] = all[rng.Intn(len(all))]
	}

	rib, err := analysis.BuildRIB(origins)
	if err != nil {
		return nil, err
	}
	torPrefixes, _, err := analysis.MapTorPrefixes(cons, rib)
	if err != nil {
		return nil, err
	}
	return &World{
		Topology: g, Consensus: cons, Hosting: hosting,
		Origins: origins, RIB: rib, TorPrefixes: torPrefixes,
	}, nil
}

// SimulateMonth runs the BGP churn simulator over the world for the
// configured duration, biasing instability toward the relay-hosting ASes
// (the empirical skew of Figure 3). Overrides with zero values fall back
// to bgpsim.DefaultConfig; pass a modified config for custom runs.
func (w *World) SimulateMonth(cfg bgpsim.Config) (*bgpsim.Stream, error) {
	if cfg.BiasOrigins == nil {
		cfg.BiasOrigins = w.Hosting.OriginASes()
	}
	sim, err := bgpsim.New(w.Topology, w.Origins)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg)
}

// SmallMonthConfig is a reduced churn configuration matched to
// SmallWorldConfig: 7 sessions over 4 days; fast enough for tests while
// exercising every event type.
func SmallMonthConfig() bgpsim.Config {
	cfg := bgpsim.DefaultConfig()
	cfg.Collectors = []bgpsim.CollectorSpec{
		{Name: "rrc00", Sessions: 4},
		{Name: "rrc01", Sessions: 3},
	}
	cfg.Duration = cfg.Duration / 8 // ~4 days
	cfg.LinkFailures = 120
	cfg.OriginChurnEvents = 900
	cfg.FlapEpisodes = 10
	cfg.MaxFlapCycles = 200
	cfg.PolicyEvents = 1
	return cfg
}

// Scale is everything a -scale name changes: the world, the month of
// churn, and each study setting that differs between scales. Every
// config carries the root seed; callers add only their worker count.
type Scale struct {
	World WorldConfig
	Month bgpsim.Config
	// Download is F2R's simulated Tor download (4 MB at small).
	Download tcpsim.Config
	// Intercept is E4 (10 trials at small).
	Intercept InterceptStudyConfig
	// Rotation is E7 (150 clients at small).
	Rotation RotationStudyConfig
	// Detection is E9: at paper, a quarter of the paper month with 25
	// attacks.
	Detection LiveDetectionConfig
	// Resilience is E10: an exact matrix at small, a 200-attacker
	// budget per guard at paper.
	Resilience ResilienceStudyConfig
}

// ScaleConfigs maps a -scale name and root seed to the configs every
// binary builds from: "small" is SmallWorldConfig with SmallMonthConfig,
// "paper" DefaultWorldConfig with bgpsim.DefaultConfig, and the studies
// start from their Default*Config. The seed lands in every config.
func ScaleConfigs(scale string, seed int64) (Scale, error) {
	s := Scale{
		Download:   tcpsim.DefaultConfig(),
		Intercept:  DefaultInterceptStudyConfig(),
		Rotation:   DefaultRotationStudyConfig(),
		Detection:  DefaultLiveDetectionConfig(),
		Resilience: DefaultResilienceStudyConfig(),
	}
	switch scale {
	case "small":
		s.World, s.Month = SmallWorldConfig(), SmallMonthConfig()
		s.Download.FileSize = 4 << 20
		s.Intercept.Trials = 10
		s.Rotation.Clients = 150
	case "paper":
		s.World, s.Month = DefaultWorldConfig(), bgpsim.DefaultConfig()
		s.Detection.Month = s.Month
		s.Detection.Month.Duration /= 4
		s.Detection.Attacks = 25
		s.Resilience.AttackerBudget = 200
	default:
		return Scale{}, fmt.Errorf("unknown scale %q", scale)
	}
	s.World.Seed, s.World.Topology.Seed, s.World.Consensus.Seed, s.Month.Seed = seed, seed, seed, seed
	s.Download.Seed, s.Intercept.Seed, s.Rotation.Seed = seed, seed, seed
	s.Detection.Seed, s.Detection.Month.Seed, s.Resilience.Seed = seed, seed, seed
	return s, nil
}
