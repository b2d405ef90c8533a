// Package bgpsim is an event-driven interdomain routing simulator. It
// plays a month of BGP churn — link failures and recoveries, targeted
// flapping episodes, rare policy shifts, and collector session resets —
// over a Gao-Rexford topology and records the resulting update streams as
// seen from a set of route-collector sessions, in the same shape (session,
// time, prefix, AS-PATH) the paper extracts from the RIPE RIS archives.
//
// The convergence model is deliberately compact: after a routing event the
// affected vantage points may announce a handful of transient exploration
// paths (alternate policy-compliant routes through non-best neighbors)
// before settling on the new stable best path. This reproduces the two
// phenomena the paper measures — path-change counts per session and extra
// ASes transiently appearing on paths — without per-router message-level
// simulation. Session resets re-announce the session's full table
// (a routing table transfer), producing exactly the artificial updates the
// paper filters out following Zhang et al.
package bgpsim

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

// Session identifies one collector eBGP session: a named collector and the
// vantage AS peering with it. The vantage's best routes are what the
// session observes.
type Session struct {
	Collector string
	PeerAS    bgp.ASN
	// visible is the set of prefixes this session learns at all; RIS
	// sessions see wildly different table subsets, which the paper's
	// methodology section quantifies.
	visible map[netip.Prefix]bool
}

// NewSession constructs a session with an explicit visibility set; the
// simulator builds sessions itself, but stream consumers (tests, MRT
// importers) need to assemble streams by hand.
func NewSession(collector string, peer bgp.ASN, visible []netip.Prefix) Session {
	s := Session{Collector: collector, PeerAS: peer, visible: make(map[netip.Prefix]bool, len(visible))}
	for _, p := range visible {
		s.visible[p] = true
	}
	return s
}

// Sees reports whether the session learns prefix p.
func (s *Session) Sees(p netip.Prefix) bool { return s.visible[p] }

// VisiblePrefixes returns the session's learned prefixes in address order.
func (s *Session) VisiblePrefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(s.visible))
	for p := range s.visible {
		out = append(out, p)
	}
	slices.SortFunc(out, bgp.ComparePrefix)
	return out
}

// UpdateEvent is one BGP UPDATE observed on a session: an announcement of
// Path for Prefix, or a withdrawal when Path is empty.
type UpdateEvent struct {
	Time    time.Time
	Session int // index into Stream.Sessions
	Prefix  netip.Prefix
	// Path is vantage first, origin last; nil = withdraw. The simulator
	// shares one path among the prefixes of an origin, and with
	// Stream.Initial: it is read-only.
	Path []bgp.ASN
	// Transfer marks updates that are part of a post-reset routing table
	// transfer. The MRT export does not carry this flag (real archives
	// don't either) — it is ground truth for validating the reset filter.
	Transfer bool
}

// Withdraw reports whether the event is a withdrawal.
func (e *UpdateEvent) Withdraw() bool { return len(e.Path) == 0 }

// ResetEvent records a session reset: the session drops at Down and
// re-establishes at Up, after which the peer retransmits its table.
type ResetEvent struct {
	Session int
	Down    time.Time
	Up      time.Time
}

// AttackEvent is the ground truth of one injected hijack: between Start
// and End, Attacker also originates Prefix, and captured vantage points
// see origin-changed announcements embedded in the ordinary churn.
type AttackEvent struct {
	Prefix   netip.Prefix
	Victim   bgp.ASN
	Attacker bgp.ASN
	Start    time.Time
	End      time.Time
}

// Stream is the complete output of a simulation run.
type Stream struct {
	Start    time.Time
	End      time.Time
	Sessions []Session
	// Initial holds the stable best path per (session, prefix) at Start;
	// this is the paper's baseline "first path used at the beginning of
	// the month". Withheld (invisible) prefixes are absent. Paths are
	// shared like UpdateEvent.Path: read-only.
	Initial map[int]map[netip.Prefix][]bgp.ASN
	// Updates holds every update event in time order.
	Updates []UpdateEvent
	// Resets holds every session reset in time order.
	Resets []ResetEvent
	// Attacks holds the injected hijacks' ground truth in time order
	// (empty unless Config.InjectHijacks was set).
	Attacks []AttackEvent
}

// Sim holds the simulation inputs: the pristine topology and the prefix
// origination table, with the dense index the event loop runs on.
type Sim struct {
	graph   *topology.Graph
	origins map[netip.Prefix]bgp.ASN
	// prefixes lists every prefix in address order; a prefix's id is its
	// position. asns lists the distinct origin ASes ascending; an origin's
	// index is its position. originOf maps a prefix id to its origin's
	// index, and idsOf an origin's index to its prefix ids, ascending.
	prefixes []netip.Prefix
	asns     []bgp.ASN
	originOf []int32
	idsOf    [][]int32
}

// New builds a simulator over g, where origins maps each announced prefix
// to the AS originating it. Every origin AS must exist in g.
func New(g *topology.Graph, origins map[netip.Prefix]bgp.ASN) (*Sim, error) {
	if len(origins) == 0 {
		return nil, fmt.Errorf("bgpsim: no prefixes to originate")
	}
	s := &Sim{graph: g, origins: origins, originOf: make([]int32, 0, len(origins))}
	for p, asn := range origins {
		if g.AS(asn) == nil {
			return nil, fmt.Errorf("bgpsim: origin %v of %v not in topology", asn, p)
		}
		s.prefixes = append(s.prefixes, p)
		s.asns = append(s.asns, asn)
	}
	slices.SortFunc(s.prefixes, bgp.ComparePrefix)
	slices.Sort(s.asns)
	s.asns = slices.Compact(s.asns)
	s.idsOf = make([][]int32, len(s.asns))
	for pid, p := range s.prefixes {
		oi, _ := slices.BinarySearch(s.asns, origins[p])
		s.originOf = append(s.originOf, int32(oi))
		s.idsOf[oi] = append(s.idsOf[oi], int32(pid))
	}
	return s, nil
}
