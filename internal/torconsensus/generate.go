package torconsensus

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/par"
)

// Hosting records where generated relays live in address space: which
// prefixes exist, which AS originates each, and which prefix contains each
// relay. These prefixes feed the BGP simulator's origination table, and
// the analysis layer re-derives the relay→prefix mapping independently by
// longest-prefix match (the two must agree; a test checks that).
type Hosting struct {
	// Prefixes maps every relay-hosting prefix to its origin AS.
	Prefixes map[netip.Prefix]bgp.ASN
	// RelayPrefix maps each relay address to its hosting prefix.
	RelayPrefix map[netip.Addr]netip.Prefix
}

// OriginASes returns the distinct origin ASes of the hosting prefixes,
// ascending.
func (h *Hosting) OriginASes() []bgp.ASN {
	seen := make(map[bgp.ASN]bool)
	for _, a := range h.Prefixes {
		seen[a] = true
	}
	out := make([]bgp.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GenConfig parameterises consensus generation. The defaults reproduce
// the population of the paper's §4 methodology.
type GenConfig struct {
	// Relay population. Guards and Exits count relays carrying those
	// flags; Both of them carry both (so guard-only = Guards-Both).
	Total  int
	Guards int
	Exits  int
	Both   int

	// GuardExitPrefixes is the number of distinct prefixes hosting
	// guard/exit relays (the paper's "Tor prefixes").
	GuardExitPrefixes int
	// MaxRelaysPerPrefix caps guard/exit relays in one prefix; the
	// fullest prefix is forced to exactly this count (Hetzner's /15
	// held 33).
	MaxRelaysPerPrefix int
	// MiddleOnlyPrefixes is the number of additional prefixes hosting
	// only middle relays.
	MiddleOnlyPrefixes int

	// HostASes is the candidate pool of hosting ASes (from the
	// topology); NumHostASes of them are used, weighted by a Zipf law so
	// a handful of hosters dominate.
	HostASes    []bgp.ASN
	NumHostASes int

	Seed       int64
	ValidAfter time.Time
}

// DefaultGenConfig returns the July-2014 population: 4586 relays, 1918
// guards, 891 exits, 442 flagged both, 1251 guard/exit prefixes announced
// by 650 ASes.
func DefaultGenConfig(hostASes []bgp.ASN) GenConfig {
	return GenConfig{
		Total: 4586, Guards: 1918, Exits: 891, Both: 442,
		GuardExitPrefixes:  1251,
		MaxRelaysPerPrefix: 33,
		MiddleOnlyPrefixes: 300,
		HostASes:           hostASes,
		NumHostASes:        650,
		Seed:               1,
		ValidAfter:         time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC),
	}
}

func (c *GenConfig) validate() error {
	if c.Both > c.Guards || c.Both > c.Exits {
		return fmt.Errorf("torconsensus: Both (%d) exceeds Guards (%d) or Exits (%d)", c.Both, c.Guards, c.Exits)
	}
	guardExit := c.Guards + c.Exits - c.Both
	if guardExit > c.Total {
		return fmt.Errorf("torconsensus: guard/exit population %d exceeds total %d", guardExit, c.Total)
	}
	if c.GuardExitPrefixes < 1 || guardExit < c.GuardExitPrefixes {
		return fmt.Errorf("torconsensus: need 1 <= prefixes (%d) <= guard/exit relays (%d)",
			c.GuardExitPrefixes, guardExit)
	}
	if c.MaxRelaysPerPrefix < 2 {
		return fmt.Errorf("torconsensus: MaxRelaysPerPrefix must be >= 2")
	}
	if guardExit > c.GuardExitPrefixes*c.MaxRelaysPerPrefix {
		return fmt.Errorf("torconsensus: %d guard/exit relays cannot fit %d prefixes capped at %d",
			guardExit, c.GuardExitPrefixes, c.MaxRelaysPerPrefix)
	}
	if c.NumHostASes < 1 || len(c.HostASes) < c.NumHostASes {
		return fmt.Errorf("torconsensus: need NumHostASes (%d) <= len(HostASes) (%d) and >= 1",
			c.NumHostASes, len(c.HostASes))
	}
	return nil
}

// addrAllocator hands out non-overlapping IPv4 blocks from 32.0.0.0
// upward, aligned to their size.
type addrAllocator struct{ cursor uint32 }

func (a *addrAllocator) alloc(bits int) netip.Prefix {
	size := uint32(1) << (32 - bits)
	if a.cursor%size != 0 {
		a.cursor += size - a.cursor%size
	}
	base := a.cursor
	a.cursor += size
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{
		byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base),
	}), bits)
}

// GenerateConsensus synthesizes a consensus document plus the address-
// space hosting plan. Output is deterministic for a given config.
func GenerateConsensus(cfg GenConfig) (*Consensus, *Hosting, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	rng := par.NewRand(cfg.Seed)

	guardExit := cfg.Guards + cfg.Exits - cfg.Both
	middles := cfg.Total - guardExit

	// --- Per-prefix guard/exit relay counts: start every prefix at one
	// relay, then distribute the surplus by preferential attachment so a
	// few prefixes grow heavy. The first prefix is forced to the cap.
	counts := make([]int, cfg.GuardExitPrefixes)
	for i := range counts {
		counts[i] = 1
	}
	surplus := guardExit - cfg.GuardExitPrefixes
	forced := cfg.MaxRelaysPerPrefix - 1
	if forced > surplus {
		forced = surplus
	}
	counts[0] += forced
	surplus -= forced
	// Preferential attachment over a sparse "growable" subset keeps the
	// median at 1: only 30% of prefixes are eligible to grow.
	growable := make([]int, 0, cfg.GuardExitPrefixes/3)
	for i := 1; i < cfg.GuardExitPrefixes; i++ {
		if rng.Float64() < 0.30 {
			growable = append(growable, i)
		}
	}
	if len(growable) == 0 {
		growable = append(growable, cfg.GuardExitPrefixes-1)
	}
	weights := make([]int, len(growable))
	totalW := 0
	for i := range weights {
		weights[i] = 1
		totalW++
	}
	for surplus > 0 {
		r := rng.Intn(totalW)
		idx := 0
		for i, w := range weights {
			if r < w {
				idx = i
				break
			}
			r -= w
		}
		pi := growable[idx]
		if counts[pi] >= cfg.MaxRelaysPerPrefix {
			// Saturated: retire from the growable set.
			totalW -= weights[idx]
			weights[idx] = 0
			if totalW == 0 {
				// Growable subset saturated: spill the rest uniformly
				// across the prefixes still below the cap (validate
				// guarantees enough global capacity).
				open := make([]int, 0, cfg.GuardExitPrefixes)
				for i := 0; i < cfg.GuardExitPrefixes; i++ {
					if counts[i] < cfg.MaxRelaysPerPrefix {
						open = append(open, i)
					}
				}
				for surplus > 0 && len(open) > 0 {
					j := rng.Intn(len(open))
					counts[open[j]]++
					surplus--
					if counts[open[j]] >= cfg.MaxRelaysPerPrefix {
						open[j] = open[len(open)-1]
						open = open[:len(open)-1]
					}
				}
				break
			}
			continue
		}
		counts[pi]++
		weights[idx]++
		totalW++
		surplus--
	}

	// --- Hosting ASes with Zipf weights (s ≈ 0.9), with the top five
	// hosters boosted: the paper's population has 5 ASes (Hetzner, OVH,
	// Abovenet, Fiberring, Online.net) carrying ~20% of all guard/exit
	// relays, far above a plain Zipf head.
	pool := append([]bgp.ASN(nil), cfg.HostASes...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	hostASes := pool[:cfg.NumHostASes]
	asWeights := make([]float64, len(hostASes))
	sumW := 0.0
	for i := range asWeights {
		asWeights[i] = 1 / math.Pow(float64(i+1), 0.9)
		if i < 5 {
			asWeights[i] *= 3
		}
		sumW += asWeights[i]
	}
	drawAS := func() int {
		r := rng.Float64() * sumW
		for i, w := range asWeights {
			if r < w {
				return i
			}
			r -= w
		}
		return len(asWeights) - 1
	}

	// --- Allocate prefixes: biggest relay counts get the widest blocks
	// and gravitate to the heaviest ASes. Every AS hosts at least one
	// prefix so the origin-AS count matches NumHostASes exactly.
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })

	alloc := &addrAllocator{cursor: 32 << 24} // start at 32.0.0.0
	host := &Hosting{
		Prefixes:    make(map[netip.Prefix]bgp.ASN),
		RelayPrefix: make(map[netip.Addr]netip.Prefix),
	}
	prefixOf := make([]netip.Prefix, len(counts))
	asOf := make([]int, len(counts))
	for rank, pi := range order {
		var bits int
		switch c := counts[pi]; {
		case c >= 20:
			bits = 15
		case c >= 8:
			bits = 17 + rng.Intn(2)
		case c >= 3:
			bits = 19 + rng.Intn(3)
		default:
			bits = 20 + rng.Intn(5)
		}
		p := alloc.alloc(bits)
		prefixOf[pi] = p
		// The twenty heaviest prefixes rotate among the top five hosting
		// ASes (big hosters announce many blocks); the next band spreads
		// one prefix to every remaining AS so the origin-AS count is
		// exact; the rest follow the Zipf draw.
		var ai int
		boosted := cfg.NumHostASes >= 5 && cfg.GuardExitPrefixes >= cfg.NumHostASes+15
		switch {
		case boosted && rank < 20:
			ai = rank % 5
		case boosted && rank < cfg.NumHostASes+15:
			ai = 5 + (rank - 20)
		case !boosted && rank < cfg.NumHostASes:
			ai = rank
		default:
			ai = drawAS()
		}
		asOf[pi] = ai
		host.Prefixes[p] = hostASes[ai]
	}

	// Middle-only prefixes, by AS weight.
	middlePrefixes := make([]netip.Prefix, 0, cfg.MiddleOnlyPrefixes)
	for i := 0; i < cfg.MiddleOnlyPrefixes; i++ {
		p := alloc.alloc(21 + rng.Intn(4))
		middlePrefixes = append(middlePrefixes, p)
		host.Prefixes[p] = hostASes[drawAS()]
	}

	// --- Build relays. Roles are interleaved round-robin over prefixes
	// so big prefixes host a mix of guards and exits.
	type role int
	const (
		roleGuard role = iota
		roleExit
		roleBoth
		roleMiddle
	)
	roles := make([]role, 0, cfg.Total)
	for i := 0; i < cfg.Guards-cfg.Both; i++ {
		roles = append(roles, roleGuard)
	}
	for i := 0; i < cfg.Exits-cfg.Both; i++ {
		roles = append(roles, roleExit)
	}
	for i := 0; i < cfg.Both; i++ {
		roles = append(roles, roleBoth)
	}
	rng.Shuffle(len(roles), func(i, j int) { roles[i], roles[j] = roles[j], roles[i] })

	c := &Consensus{
		ValidAfter: cfg.ValidAfter,
		FreshUntil: cfg.ValidAfter.Add(time.Hour),
		ValidUntil: cfg.ValidAfter.Add(3 * time.Hour),
	}
	hostCursor := make(map[netip.Prefix]uint32) // next host offset per prefix

	nextAddr := func(p netip.Prefix) netip.Addr {
		hostCursor[p]++
		off := hostCursor[p]
		base := p.Addr().As4()
		v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
		v += off
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}

	mkRelay := func(idx int, p netip.Prefix, rl role) Relay {
		addr := nextAddr(p)
		host.RelayPrefix[addr] = p
		idBytes := make([]byte, 20)
		rng.Read(idBytes)
		dgBytes := make([]byte, 20)
		rng.Read(dgBytes)
		r := Relay{
			Nickname:  fmt.Sprintf("relay%04d", idx),
			Identity:  Fingerprint(idBytes),
			Digest:    Fingerprint(dgBytes),
			Published: cfg.ValidAfter.Add(-time.Duration(1+rng.Intn(18)) * time.Hour),
			Addr:      addr,
			ORPort:    9001,
			Flags:     FlagRunning | FlagValid | FlagFast,
		}
		// Log-normal consensus weights; entry/exit positions skew high.
		mu, sigma := 5.5, 1.1
		if rl != roleMiddle {
			mu = 7.0
		}
		bw := math.Exp(mu + sigma*rng.NormFloat64())
		if bw < 20 {
			bw = 20
		}
		if bw > 200000 {
			bw = 200000
		}
		r.Bandwidth = uint64(bw)
		if rng.Float64() < 0.65 {
			r.Flags |= FlagStable
		}
		switch rl {
		case roleGuard:
			r.Flags |= FlagGuard | FlagStable
			r.ExitPolicy = "reject 1-65535"
		case roleExit:
			r.Flags |= FlagExit
			r.ExitPolicy = exitPolicy(rng)
		case roleBoth:
			r.Flags |= FlagGuard | FlagExit | FlagStable
			r.ExitPolicy = exitPolicy(rng)
		default:
			r.ExitPolicy = "reject 1-65535"
		}
		return r
	}

	idx := 0
	ri := 0
	for pi, n := range counts {
		for k := 0; k < n; k++ {
			c.Relays = append(c.Relays, mkRelay(idx, prefixOf[pi], roles[ri]))
			idx++
			ri++
		}
	}

	// Middles: 70% into guard/exit prefixes (count-weighted), 30% into
	// middle-only prefixes.
	for m := 0; m < middles; m++ {
		var p netip.Prefix
		if len(middlePrefixes) == 0 || rng.Float64() < 0.7 {
			p = prefixOf[order[rng.Intn(1+rng.Intn(len(order)))]] // skewed to big prefixes
		} else {
			p = middlePrefixes[rng.Intn(len(middlePrefixes))]
		}
		c.Relays = append(c.Relays, mkRelay(idx, p, roleMiddle))
		idx++
	}
	return c, host, nil
}

func exitPolicy(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return "accept 80,443"
	case 1:
		return "accept 20-23,43,53,80,110,143,443,993,995"
	default:
		return "accept 1-65535"
	}
}
