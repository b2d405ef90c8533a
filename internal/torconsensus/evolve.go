package torconsensus

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"quicksand/internal/bgp"
)

// EvolveConfig parameterises one epoch of relay churn: the Tor network's
// population is not static over the paper's measurement month — relays
// leave, join, flap their Running flag, and drift in measured bandwidth.
type EvolveConfig struct {
	Seed int64
	// LeaveProb is the per-relay probability of leaving permanently.
	LeaveProb float64
	// JoinCount is the number of new relays joining, placed in existing
	// relay-hosting prefixes.
	JoinCount int
	// DownProb is the per-relay probability of losing the Running flag
	// for this epoch (it returns next epoch unless it leaves).
	DownProb float64
	// BWSigma is the standard deviation of the per-epoch log-normal
	// bandwidth drift (0 disables drift).
	BWSigma float64
}

// DefaultEvolveConfig models a month of churn: ~3% departures, ~2% down,
// mild bandwidth drift, and enough joiners to hold the population steady.
func DefaultEvolveConfig(seed int64, population int) EvolveConfig {
	return EvolveConfig{
		Seed:      seed,
		LeaveProb: 0.03,
		JoinCount: population * 3 / 100,
		DownProb:  0.02,
		BWSigma:   0.15,
	}
}

func (c *EvolveConfig) validate() error {
	if c.LeaveProb < 0 || c.LeaveProb >= 1 {
		return fmt.Errorf("torconsensus: LeaveProb %v out of [0,1)", c.LeaveProb)
	}
	if c.DownProb < 0 || c.DownProb >= 1 {
		return fmt.Errorf("torconsensus: DownProb %v out of [0,1)", c.DownProb)
	}
	if c.JoinCount < 0 {
		return fmt.Errorf("torconsensus: negative JoinCount")
	}
	if c.BWSigma < 0 {
		return fmt.Errorf("torconsensus: negative BWSigma")
	}
	return nil
}

// Evolve produces the next epoch's consensus from cur: departures,
// Running-flag flaps, bandwidth drift, and new relays placed into the
// hosting plan (which is extended in place with their addresses). The
// returned consensus is valid from validAfter.
func Evolve(cur *Consensus, host *Hosting, cfg EvolveConfig, validAfter time.Time) (*Consensus, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cur == nil || host == nil {
		return nil, fmt.Errorf("torconsensus: nil consensus or hosting")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	next := &Consensus{
		ValidAfter: validAfter,
		FreshUntil: validAfter.Add(time.Hour),
		ValidUntil: validAfter.Add(3 * time.Hour),
	}

	// Surviving relays, with flap and drift.
	for i := range cur.Relays {
		r := cur.Relays[i] // copy
		if rng.Float64() < cfg.LeaveProb {
			continue
		}
		if rng.Float64() < cfg.DownProb {
			r.Flags &^= FlagRunning
		} else {
			r.Flags |= FlagRunning
		}
		if cfg.BWSigma > 0 {
			r.Bandwidth = uint64(math.Max(20, float64(r.Bandwidth)*math.Exp(cfg.BWSigma*rng.NormFloat64())))
		}
		next.Relays = append(next.Relays, r)
	}

	// Joiners: placed into existing guard/exit prefixes at the next free
	// host address.
	prefixes := make([]netip.Prefix, 0, len(host.Prefixes))
	for p := range host.Prefixes {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, bgp.ComparePrefix)
	used := make(map[netip.Addr]bool, len(host.RelayPrefix))
	for a := range host.RelayPrefix {
		used[a] = true
	}
	for j := 0; j < cfg.JoinCount && len(prefixes) > 0; j++ {
		p := prefixes[rng.Intn(len(prefixes))]
		addr, ok := nextFreeAddr(p, used)
		if !ok {
			continue // prefix full; try another joiner slot next epoch
		}
		used[addr] = true
		host.RelayPrefix[addr] = p

		idBytes := make([]byte, 20)
		rng.Read(idBytes)
		dgBytes := make([]byte, 20)
		rng.Read(dgBytes)
		r := Relay{
			Nickname:   fmt.Sprintf("joiner%06d", rng.Intn(1000000)),
			Identity:   Fingerprint(idBytes),
			Digest:     Fingerprint(dgBytes),
			Published:  validAfter.Add(-time.Duration(1+rng.Intn(12)) * time.Hour),
			Addr:       addr,
			ORPort:     9001,
			Flags:      FlagRunning | FlagValid | FlagFast,
			Bandwidth:  uint64(math.Exp(5.5 + 1.1*rng.NormFloat64())),
			ExitPolicy: "reject 1-65535",
		}
		switch rng.Intn(10) {
		case 0, 1, 2: // ~30% guards
			r.Flags |= FlagGuard | FlagStable
		case 3: // ~10% exits
			r.Flags |= FlagExit
			r.ExitPolicy = exitPolicy(rng)
		}
		if r.Bandwidth < 20 {
			r.Bandwidth = 20
		}
		next.Relays = append(next.Relays, r)
	}
	return next, nil
}

// nextFreeAddr scans the prefix for the lowest unused host address,
// skipping the network address.
func nextFreeAddr(p netip.Prefix, used map[netip.Addr]bool) (netip.Addr, bool) {
	base := p.Addr().As4()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	size := uint32(1) << (32 - p.Bits())
	for off := uint32(1); off < size-1; off++ {
		c := v + off
		addr := netip.AddrFrom4([4]byte{byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)})
		if !used[addr] {
			return addr, true
		}
	}
	return netip.Addr{}, false
}
