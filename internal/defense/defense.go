// Package defense implements the countermeasures of paper §5:
//
//   - AS-aware relay selection: pick circuits so that no AS can observe
//     both the client↔guard segment and the exit↔destination segment,
//     accounting for path asymmetry (both directions of each segment)
//     and, optionally, for the path dynamics observed over the past
//     month;
//   - shorter-AS-PATH guard preference, which shrinks the region a
//     stealthy same-prefix hijack can steal the client→guard route from;
//   - a control-plane monitor that watches BGP updates for relay
//     prefixes and raises aggressive alarms (origin change, more-specific
//     announcement, unfamiliar upstream), accepting false positives to
//     avoid false negatives.
package defense

import (
	"fmt"
	"net/netip"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
	"quicksand/internal/torpath"
)

// PathOracle reports the set of ASes able to observe traffic between two
// ASes. Implementations differ in how pessimistic they are: static uses
// today's paths only, dynamics-aware folds in the churn of the past month.
type PathOracle interface {
	// SegmentASes returns every AS on the forward or reverse path
	// between a and b (asymmetric routing means the two differ; an
	// observer on either direction suffices, §3.3).
	SegmentASes(a, b bgp.ASN) ([]bgp.ASN, error)
}

// StaticOracle computes segment ASes from current best paths in a
// topology, both directions included. Route tables come from a shared
// topology.RouteCache, safe for concurrent use, so one oracle can serve
// every worker of a parallel study — and several oracles (or other
// per-destination consumers) can share one cache.
type StaticOracle struct {
	cache *topology.RouteCache
}

// NewStaticOracle returns a StaticOracle over g with a private cache.
func NewStaticOracle(g *topology.Graph) *StaticOracle {
	return &StaticOracle{cache: topology.NewRouteCache(g)}
}

// NewSharedStaticOracle returns a StaticOracle backed by an existing
// route cache, sharing its per-destination tables with other consumers.
func NewSharedStaticOracle(rc *topology.RouteCache) *StaticOracle {
	return &StaticOracle{cache: rc}
}

func (o *StaticOracle) table(dst bgp.ASN) (*topology.CompiledRoutes, error) {
	return o.cache.Routes(dst)
}

// SegmentASes returns the union of ASes on the a→b and b→a best paths.
func (o *StaticOracle) SegmentASes(a, b bgp.ASN) ([]bgp.ASN, error) {
	seen := make(map[bgp.ASN]bool)
	for _, pair := range [2][2]bgp.ASN{{a, b}, {b, a}} {
		rt, err := o.table(pair[1])
		if err != nil {
			return nil, err
		}
		path, ok := rt.PathFrom(pair[0])
		if !ok {
			return nil, fmt.Errorf("defense: no path %v -> %v", pair[0], pair[1])
		}
		for _, asn := range path {
			seen[asn] = true
		}
	}
	out := make([]bgp.ASN, 0, len(seen))
	for asn := range seen {
		out = append(out, asn)
	}
	return out, nil
}

// DynamicsOracle extends a base oracle with the extra ASes observed on
// paths toward each destination AS over the measurement window — the §5
// recommendation that relays publish the ASes they used over the last
// month so clients can account for path dynamics.
type DynamicsOracle struct {
	Base PathOracle
	// Extra maps a destination AS to additional ASes that appeared on
	// paths toward its prefixes during the window (e.g. from
	// analysis.ExtraASes over a bgpsim stream).
	Extra map[bgp.ASN][]bgp.ASN
}

// SegmentASes returns the base segment set plus the recorded dynamics for
// both endpoints.
func (o *DynamicsOracle) SegmentASes(a, b bgp.ASN) ([]bgp.ASN, error) {
	base, err := o.Base.SegmentASes(a, b)
	if err != nil {
		return nil, err
	}
	seen := make(map[bgp.ASN]bool, len(base))
	for _, asn := range base {
		seen[asn] = true
	}
	for _, asn := range o.Extra[a] {
		seen[asn] = true
	}
	for _, asn := range o.Extra[b] {
		seen[asn] = true
	}
	out := make([]bgp.ASN, 0, len(seen))
	for asn := range seen {
		out = append(out, asn)
	}
	return out, nil
}

// ASAwareSelector builds circuits whose two observable segments share no
// AS, per the oracle's (possibly dynamics-aware) view.
type ASAwareSelector struct {
	Selector *torpath.Selector
	Oracle   PathOracle
	// RelayAS maps a relay address to its hosting AS (longest-prefix
	// match against the RIB); relays it cannot map are treated as
	// unusable.
	RelayAS func(addr netip.Addr) (bgp.ASN, bool)
	// MaxAttempts bounds the rejection-sampling loop (default 50).
	MaxAttempts int
}

// BuildCircuit returns a circuit for which the client↔guard AS set and
// the exit↔destination AS set are disjoint. It errors when MaxAttempts
// samples all fail the check.
func (s *ASAwareSelector) BuildCircuit(gs *torpath.GuardSet, port uint16, clientAS, destAS bgp.ASN) (torpath.Circuit, error) {
	attempts := s.MaxAttempts
	if attempts <= 0 {
		attempts = 50
	}
	for i := 0; i < attempts; i++ {
		c, err := s.Selector.BuildCircuit(gs, port)
		if err != nil {
			return torpath.Circuit{}, err
		}
		ok, err := s.CircuitSafe(c, clientAS, destAS)
		if err != nil {
			continue // unroutable relay: resample
		}
		if ok {
			return c, nil
		}
	}
	return torpath.Circuit{}, fmt.Errorf("defense: no AS-disjoint circuit in %d attempts", attempts)
}

// CircuitSafe reports whether the circuit's entry and exit segments share
// no observing AS.
func (s *ASAwareSelector) CircuitSafe(c torpath.Circuit, clientAS, destAS bgp.ASN) (bool, error) {
	guardAS, ok := s.RelayAS(c.Guard.Addr)
	if !ok {
		return false, fmt.Errorf("defense: guard %v not mappable to an AS", c.Guard.Addr)
	}
	exitAS, ok := s.RelayAS(c.Exit.Addr)
	if !ok {
		return false, fmt.Errorf("defense: exit %v not mappable to an AS", c.Exit.Addr)
	}
	entry, err := s.Oracle.SegmentASes(clientAS, guardAS)
	if err != nil {
		return false, err
	}
	exit, err := s.Oracle.SegmentASes(exitAS, destAS)
	if err != nil {
		return false, err
	}
	entrySet := make(map[bgp.ASN]bool, len(entry))
	for _, a := range entry {
		entrySet[a] = true
	}
	for _, a := range exit {
		if entrySet[a] {
			return false, nil
		}
	}
	return true, nil
}

// PickGuardsPreferShort selects n guards bandwidth-weighted among those
// whose client→guard AS path is at most maxLen hops, relaxing the bound
// one hop at a time when too few guards qualify (§5: "favoring relays
// with shorter AS-PATHs" mitigates stealthy same-prefix hijacks, which
// only win over ASes with long paths to the victim). The returned guard
// set is stamped with the given selection time.
func PickGuardsPreferShort(sel *torpath.Selector, oracle *StaticOracle, relayAS func(netip.Addr) (bgp.ASN, bool), clientAS bgp.ASN, n, maxLen int, now time.Time) (*torpath.GuardSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("defense: need at least one guard")
	}
	guards := sel.Consensus().Guards()
	// Compute each guard's AS-path length from the client: the length of
	// the client's route toward the guard's AS.
	lengths := make(map[string]int, len(guards))
	for _, g := range guards {
		asn, ok := relayAS(g.Addr)
		if !ok {
			continue
		}
		rt, err := oracle.table(asn)
		if err != nil {
			return nil, err
		}
		r, ok := rt.Route(clientAS)
		if !ok || r.Type == topology.RouteNone {
			continue
		}
		lengths[g.Identity] = int(r.PathLen)
	}
	for bound := maxLen; ; bound++ {
		var eligible []*torconsensus.Relay
		for _, g := range guards {
			if l, ok := lengths[g.Identity]; ok && l <= bound {
				eligible = append(eligible, g)
			}
		}
		if len(eligible) >= n*3 || bound > maxLen+16 {
			if len(eligible) < n {
				return nil, fmt.Errorf("defense: only %d reachable guards", len(eligible))
			}
			gs := &torpath.GuardSet{Chosen: now, Lifetime: torpath.DefaultGuardLifetime}
			for len(gs.Guards) < n {
				g := sel.WeightedPick(eligible, gs.Guards)
				if g == nil {
					return nil, fmt.Errorf("defense: exclusion rules left fewer than %d guards", n)
				}
				gs.Guards = append(gs.Guards, g)
			}
			return gs, nil
		}
	}
}
