package testkit

import (
	"math/rand"
	"net/netip"
	"time"

	"quicksand"
	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
)

// genValidAfter anchors generated consensuses in the paper's measurement
// window; generators must not read the wall clock or determinism dies.
var genValidAfter = time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)

// RandomTopologyConfig returns a small random three-tier generator
// config (roughly 60-300 ASes), always satisfying GenConfig validation.
func RandomTopologyConfig(seed int64) topology.GenConfig {
	rng := Rand(seed, 0)
	return topology.GenConfig{
		Tier1:          2 + rng.Intn(3),
		Tier2:          10 + rng.Intn(15),
		Tier3:          60 + rng.Intn(200),
		Tier2PeerProb:  0.05 + 0.15*rng.Float64(),
		MaxT2Providers: 1 + rng.Intn(3),
		MaxT3Providers: 1 + rng.Intn(3),
		Seed:           rng.Int63(),
	}
}

// RandomTopology generates a random small topology.
func RandomTopology(seed int64) (*topology.Graph, error) {
	return topology.Generate(RandomTopologyConfig(seed))
}

// RandomConsensusConfig returns a random consensus generator config over
// the given hosting-AS pool (a synthetic pool is fabricated when nil),
// always satisfying GenConfig validation and never saturating the
// per-prefix relay cap.
func RandomConsensusConfig(seed int64, hostASes []bgp.ASN) torconsensus.GenConfig {
	rng := Rand(seed, 1)
	if hostASes == nil {
		n := 40 + rng.Intn(40)
		hostASes = make([]bgp.ASN, n)
		for i := range hostASes {
			hostASes[i] = bgp.ASN(10001 + i)
		}
	}
	total := 80 + rng.Intn(120)
	guards := total/4 + rng.Intn(total/8)
	exits := total/6 + rng.Intn(total/8)
	both := rng.Intn(min(guards, exits)/2 + 1)
	guardExit := guards + exits - both
	prefixes := max(2, guardExit/4+rng.Intn(guardExit/4+1))
	// Cap chosen so prefixes*cap comfortably exceeds the relay count:
	// a saturated allocation is an infeasible hosting plan.
	cap := max(2+rng.Intn(20), guardExit/prefixes+2)
	numHost := min(len(hostASes), 8+rng.Intn(20))
	return torconsensus.GenConfig{
		Total: total, Guards: guards, Exits: exits, Both: both,
		GuardExitPrefixes:  prefixes,
		MaxRelaysPerPrefix: cap,
		MiddleOnlyPrefixes: rng.Intn(15),
		HostASes:           hostASes,
		NumHostASes:        numHost,
		Seed:               rng.Int63(),
		ValidAfter:         genValidAfter,
	}
}

// RandomConsensus generates a random relay population with its hosting
// plan over a synthetic AS pool.
func RandomConsensus(seed int64) (*torconsensus.Consensus, *torconsensus.Hosting, error) {
	return torconsensus.GenerateConsensus(RandomConsensusConfig(seed, nil))
}

// RandomWorldConfig returns a random small world: topology, relay
// population, and background prefixes, sized for sub-second builds.
func RandomWorldConfig(seed int64) quicksand.WorldConfig {
	rng := Rand(seed, 2)
	topo := RandomTopologyConfig(rng.Int63())
	cons := RandomConsensusConfig(rng.Int63(), nil)
	// BuildWorld fills HostASes from the topology's stub tier; the pool
	// must accommodate the host-AS draw.
	cons.HostASes = nil
	cons.NumHostASes = min(cons.NumHostASes, topo.Tier3)
	return quicksand.WorldConfig{
		Seed:               rng.Int63(),
		Topology:           topo,
		Consensus:          cons,
		BackgroundPrefixes: 50 + rng.Intn(250),
	}
}

// RandomWorld builds a random small world.
func RandomWorld(seed int64) (*quicksand.World, error) {
	return quicksand.BuildWorld(RandomWorldConfig(seed))
}

// RandomChurnConfig returns a random short churn-simulation config (1-3
// days, a handful of sessions). PolicyEvents is pinned to zero: policy
// shifts permanently rewrite adjacencies, and the stream invariant
// checkers classify hops against the pristine topology — which stays
// authoritative only under pure link-outage churn. Hijack injection is
// likewise off; tests that want attacks set InjectHijacks themselves
// (CheckStreamPolicy understands Stream.Attacks ground truth).
func RandomChurnConfig(seed int64) bgpsim.Config {
	rng := Rand(seed, 3)
	cfg := bgpsim.DefaultConfig()
	cfg.Seed = rng.Int63()
	cfg.Duration = time.Duration(1+rng.Intn(3)) * 24 * time.Hour
	cfg.Collectors = []bgpsim.CollectorSpec{
		{Name: "rrc00", Sessions: 1 + rng.Intn(3)},
		{Name: "rrc01", Sessions: 1 + rng.Intn(2)},
	}
	cfg.LinkFailures = 20 + rng.Intn(40)
	cfg.OriginChurnEvents = 60 + rng.Intn(120)
	cfg.FlapEpisodes = 1 + rng.Intn(3)
	cfg.MaxFlapCycles = 10 + rng.Intn(50)
	cfg.PolicyEvents = 0
	cfg.InjectHijacks = 0
	cfg.ResetsPerSessionMean = rng.Float64()
	return cfg
}

// RandomStream builds a random world and plays a random churn trace over
// it, returning both.
func RandomStream(seed int64) (*quicksand.World, *bgpsim.Stream, error) {
	w, err := RandomWorld(seed)
	if err != nil {
		return nil, nil, err
	}
	st, err := w.SimulateMonth(RandomChurnConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	return w, st, nil
}

// RandomAddr4 draws a uniform IPv4 address.
func RandomAddr4(rng *rand.Rand) netip.Addr {
	var b [4]byte
	rng.Read(b[:])
	return netip.AddrFrom4(b)
}

// RandomPrefix draws a masked IPv4 prefix with 8-32 bits.
func RandomPrefix(rng *rand.Rand) netip.Prefix {
	bits := 8 + rng.Intn(25)
	p, _ := RandomAddr4(rng).Prefix(bits)
	return p
}

// RandomASN draws an ASN: 16-bit when as4 is false (so 2-octet AS_PATH
// encoding is lossless), occasionally >16-bit when as4 is true.
func RandomASN(rng *rand.Rand, as4 bool) bgp.ASN {
	if as4 && rng.Intn(3) == 0 {
		return bgp.ASN(1<<16 + rng.Intn(1<<20))
	}
	return bgp.ASN(1 + rng.Intn(0xFFFE))
}

// RandomPathAttributes draws a recognised-attribute set: mandatory
// ORIGIN/AS_PATH/NEXT_HOP plus a random sprinkling of the optional
// attributes the codec implements.
func RandomPathAttributes(rng *rand.Rand, as4 bool) bgp.PathAttributes {
	a := bgp.PathAttributes{
		Origin:    rng.Intn(3),
		HasOrigin: true,
		HasASPath: true,
		NextHop:   RandomAddr4(rng),
	}
	seq := make([]bgp.ASN, 1+rng.Intn(5))
	for i := range seq {
		seq[i] = RandomASN(rng, as4)
	}
	a.ASPath = bgp.Sequence(seq...)
	if rng.Intn(4) == 0 {
		set := make([]bgp.ASN, 1+rng.Intn(3))
		for i := range set {
			set[i] = RandomASN(rng, as4)
		}
		a.ASPath.Segments = append(a.ASPath.Segments, bgp.Segment{Type: bgp.SegmentSet, ASes: set})
	}
	if rng.Intn(2) == 0 {
		a.MED = rng.Uint32()
		a.HasMED = true
	}
	if rng.Intn(2) == 0 {
		a.LocalPref = rng.Uint32()
		a.HasLocalPref = true
	}
	if rng.Intn(4) == 0 {
		a.AtomicAggregate = true
	}
	if rng.Intn(4) == 0 {
		a.Aggregator = &bgp.Aggregator{ASN: RandomASN(rng, as4), Addr: RandomAddr4(rng)}
	}
	for i := rng.Intn(3); i > 0; i-- {
		a.Communities = append(a.Communities,
			bgp.Community(uint32(rng.Intn(1<<16))<<16|uint32(rng.Intn(1<<16))))
	}
	return a
}

// RandomUpdate draws a random UPDATE: withdrawals, attributes and NLRI,
// at least one of NLRI/withdrawals non-empty.
func RandomUpdate(rng *rand.Rand, as4 bool) *bgp.Update {
	u := &bgp.Update{}
	for i := rng.Intn(3); i > 0; i-- {
		u.Withdrawn = append(u.Withdrawn, RandomPrefix(rng))
	}
	n := rng.Intn(4)
	if n == 0 && len(u.Withdrawn) == 0 {
		n = 1
	}
	if n > 0 {
		u.Attrs = RandomPathAttributes(rng, as4)
		for i := 0; i < n; i++ {
			u.NLRI = append(u.NLRI, RandomPrefix(rng))
		}
	}
	return u
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
