// Package torpath implements Tor's relay selection: bandwidth-weighted
// sampling from the consensus, guard-set management with rotation, and
// three-hop circuit construction under Tor's exclusion constraints
// (distinct relays, no two relays in the same /16).
//
// The selection model matches the behaviour the paper relies on: "clients
// select relays with a probability that is proportional to their network
// capacity", entry positions come from a small fixed guard set (three
// guards kept for about a month), and exits must admit the destination
// port in their exit policy.
package torpath

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"quicksand/internal/par"
	"quicksand/internal/torconsensus"
)

// Selector draws relays from a consensus with a deterministic RNG.
type Selector struct {
	cons *torconsensus.Consensus
	rng  *rand.Rand
}

// NewSelector returns a Selector over cons seeded with seed.
func NewSelector(cons *torconsensus.Consensus, seed int64) *Selector {
	return &Selector{cons: cons, rng: par.NewRand(seed)}
}

// Consensus returns the consensus this selector draws from.
func (s *Selector) Consensus() *torconsensus.Consensus { return s.cons }

// sameSlash16 reports whether two addresses share a /16, Tor's subnet
// exclusion rule.
func sameSlash16(a, b netip.Addr) bool {
	if !a.Is4() || !b.Is4() {
		return false
	}
	x, y := a.As4(), b.As4()
	return x[0] == y[0] && x[1] == y[1]
}

// conflicts reports whether candidate violates Tor's exclusion rules
// against the already-chosen relays.
func conflicts(candidate *torconsensus.Relay, chosen []*torconsensus.Relay) bool {
	for _, c := range chosen {
		if c == nil {
			continue
		}
		if c.Identity == candidate.Identity || sameSlash16(c.Addr, candidate.Addr) {
			return true
		}
	}
	return false
}

// WeightedPick draws one relay from candidates with probability
// proportional to consensus bandwidth, excluding any relay conflicting
// with the exclude list. It returns nil when no eligible relay remains.
func (s *Selector) WeightedPick(candidates []*torconsensus.Relay, exclude []*torconsensus.Relay) *torconsensus.Relay {
	var total uint64
	for _, r := range candidates {
		if conflicts(r, exclude) {
			continue
		}
		total += r.Bandwidth
	}
	if total == 0 {
		return nil
	}
	pick := uint64(s.rng.Int63n(int64(total)))
	for _, r := range candidates {
		if conflicts(r, exclude) {
			continue
		}
		if pick < r.Bandwidth {
			return r
		}
		pick -= r.Bandwidth
	}
	return nil
}

// WeightFn maps a candidate relay to a non-negative selection weight.
// A weight of zero (or less) makes the relay unselectable.
type WeightFn func(r *torconsensus.Relay) float64

// WeightedPickFn draws one relay with probability proportional to
// weight(r), under the same exclusion rules as WeightedPick. It returns
// nil when no eligible relay has positive weight. The draw consumes one
// value from the selector's deterministic RNG stream.
func (s *Selector) WeightedPickFn(candidates []*torconsensus.Relay, exclude []*torconsensus.Relay, weight WeightFn) *torconsensus.Relay {
	var total float64
	for _, r := range candidates {
		if conflicts(r, exclude) {
			continue
		}
		if w := weight(r); w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return nil
	}
	pick := s.rng.Float64() * total
	var last *torconsensus.Relay
	for _, r := range candidates {
		if conflicts(r, exclude) {
			continue
		}
		w := weight(r)
		if w <= 0 {
			continue
		}
		if pick < w {
			return r
		}
		pick -= w
		last = r
	}
	// Float accumulation can leave a sliver past the last weight; the
	// draw belongs to the final eligible relay.
	return last
}

// PickGuardsFn selects n entry guards like PickGuards but with draws
// weighted by weight instead of raw bandwidth, preserving the exclusion
// rules (distinct relays, no shared /16).
func (s *Selector) PickGuardsFn(n int, now time.Time, weight WeightFn) (*GuardSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("torpath: need at least one guard, asked for %d", n)
	}
	guards := s.cons.Guards()
	set := &GuardSet{Chosen: now, Lifetime: DefaultGuardLifetime}
	for len(set.Guards) < n {
		g := s.WeightedPickFn(guards, set.Guards, weight)
		if g == nil {
			return nil, fmt.Errorf("torpath: only %d eligible guards, wanted %d", len(set.Guards), n)
		}
		set.Guards = append(set.Guards, g)
	}
	return set, nil
}

// ResilienceWeight builds Counter-RAPTOR's guard weighting
//
//	W(i) = a·R(i) + (1−a)·B(i)
//
// over the candidate set: R(i) ∈ [0,1] is the client's hijack
// resilience toward the relay's AS (from resilience(r)) and B(i) is the
// relay's consensus bandwidth normalised by the maximum over
// candidates, so both terms share the [0,1] scale and a=0 reproduces
// the vanilla bandwidth-proportional distribution exactly. Relays whose
// resilience is unknown (ok=false) get R=0 — the conservative choice:
// an unmapped relay is never boosted above its bandwidth share. The
// weights are resolved once, so the returned WeightFn is cheap per
// draw.
func ResilienceWeight(candidates []*torconsensus.Relay, a float64, resilience func(r *torconsensus.Relay) (float64, bool)) (WeightFn, error) {
	if a < 0 || a > 1 {
		return nil, fmt.Errorf("torpath: resilience weight a=%v outside [0,1]", a)
	}
	var maxBW uint64
	for _, r := range candidates {
		if r.Bandwidth > maxBW {
			maxBW = r.Bandwidth
		}
	}
	weights := make(map[string]float64, len(candidates))
	for _, r := range candidates {
		var b float64
		if maxBW > 0 {
			b = float64(r.Bandwidth) / float64(maxBW)
		}
		var ri float64
		if resilience != nil {
			if v, ok := resilience(r); ok {
				ri = min(max(v, 0), 1)
			}
		}
		weights[r.Identity] = a*ri + (1-a)*b
	}
	return func(r *torconsensus.Relay) float64 { return weights[r.Identity] }, nil
}

// SelectionProb returns each candidate relay's stationary selection
// probability (bandwidth over total bandwidth), keyed by identity. The
// anonymity analyses use this to weight per-guard exposure.
func SelectionProb(candidates []*torconsensus.Relay) map[string]float64 {
	var total float64
	for _, r := range candidates {
		total += float64(r.Bandwidth)
	}
	out := make(map[string]float64, len(candidates))
	if total == 0 {
		return out
	}
	for _, r := range candidates {
		out[r.Identity] = float64(r.Bandwidth) / total
	}
	return out
}

// GuardSet is a client's entry-guard set: NumGuards relays kept until
// rotation, Tor's defence against long-term relay-level compromise. The
// paper's §3.1 observation is that the AS-level paths *to* these fixed
// guards still change underneath them.
type GuardSet struct {
	Guards   []*torconsensus.Relay
	Chosen   time.Time
	Lifetime time.Duration
}

// DefaultNumGuards is Tor's guard-set size at the time of the paper.
const DefaultNumGuards = 3

// DefaultGuardLifetime approximates the guard rotation period ("about a
// month"; the Tor Project was considering 9 months).
const DefaultGuardLifetime = 30 * 24 * time.Hour

// PickGuards selects n entry guards: bandwidth-weighted draws from the
// Guard-flagged relays under the exclusion rules.
func (s *Selector) PickGuards(n int, now time.Time) (*GuardSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("torpath: need at least one guard, asked for %d", n)
	}
	guards := s.cons.Guards()
	set := &GuardSet{Chosen: now, Lifetime: DefaultGuardLifetime}
	for len(set.Guards) < n {
		g := s.WeightedPick(guards, set.Guards)
		if g == nil {
			return nil, fmt.Errorf("torpath: only %d eligible guards, wanted %d", len(set.Guards), n)
		}
		set.Guards = append(set.Guards, g)
	}
	return set, nil
}

// Expired reports whether the guard set should rotate at time now.
func (gs *GuardSet) Expired(now time.Time) bool {
	return now.Sub(gs.Chosen) >= gs.Lifetime
}

// Circuit is a three-hop Tor circuit.
type Circuit struct {
	Guard  *torconsensus.Relay
	Middle *torconsensus.Relay
	Exit   *torconsensus.Relay
}

// BuildCircuit constructs a circuit: a uniformly-chosen guard from the
// client's guard set, then a bandwidth-weighted exit admitting port, then
// a bandwidth-weighted middle, all mutually non-conflicting. This mirrors
// Tor's build order (exit first, then guard, then middle); the guard is
// drawn first here because the set is fixed per client, which yields the
// same distribution.
func (s *Selector) BuildCircuit(gs *GuardSet, port uint16) (Circuit, error) {
	if gs == nil || len(gs.Guards) == 0 {
		return Circuit{}, fmt.Errorf("torpath: empty guard set")
	}
	guard := gs.Guards[s.rng.Intn(len(gs.Guards))]

	var exitCands []*torconsensus.Relay
	for _, r := range s.cons.Exits() {
		if r.AllowsPort(port) {
			exitCands = append(exitCands, r)
		}
	}
	exit := s.WeightedPick(exitCands, []*torconsensus.Relay{guard})
	if exit == nil {
		return Circuit{}, fmt.Errorf("torpath: no eligible exit for port %d", port)
	}

	middle := s.WeightedPick(s.cons.Running(), []*torconsensus.Relay{guard, exit})
	if middle == nil {
		return Circuit{}, fmt.Errorf("torpath: no eligible middle relay")
	}
	return Circuit{Guard: guard, Middle: middle, Exit: exit}, nil
}
