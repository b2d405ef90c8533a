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
	"sort"
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

// VisibleCount returns how many prefixes the session learns.
func (s *Session) VisibleCount() int { return len(s.visible) }

// VisiblePrefixes returns the session's learned prefixes in address order.
func (s *Session) VisiblePrefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(s.visible))
	for p := range s.visible {
		out = append(out, p)
	}
	sortPrefixes(out)
	return out
}

func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		ai, aj := ps[i].Addr(), ps[j].Addr()
		if ai != aj {
			return ai.Less(aj)
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}

// UpdateEvent is one BGP UPDATE observed on a session: an announcement of
// Path for Prefix, or a withdrawal when Path is empty.
type UpdateEvent struct {
	Time    time.Time
	Session int // index into Stream.Sessions
	Prefix  netip.Prefix
	Path    []bgp.ASN // vantage first, origin last; nil = withdraw
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
	// the month". Withheld (invisible) prefixes are absent.
	Initial map[int]map[netip.Prefix][]bgp.ASN
	// Updates holds every update event in time order.
	Updates []UpdateEvent
	// Resets holds every session reset in time order.
	Resets []ResetEvent
	// Attacks holds the injected hijacks' ground truth in time order
	// (empty unless Config.InjectHijacks was set).
	Attacks []AttackEvent
}

// PathSample is one step of a (session, prefix) path history.
type PathSample struct {
	Time time.Time
	Path []bgp.ASN // nil while withdrawn
}

// PathHistory reconstructs the full path timeline of prefix p on session
// si: the initial path at Start followed by every subsequent update, table
// transfers included (callers filter with the Transfer flag or a reset
// heuristic as desired).
func (st *Stream) PathHistory(si int, p netip.Prefix, includeTransfers bool) []PathSample {
	var out []PathSample
	if init, ok := st.Initial[si][p]; ok {
		out = append(out, PathSample{Time: st.Start, Path: init})
	}
	for i := range st.Updates {
		u := &st.Updates[i]
		if u.Session != si || u.Prefix != p {
			continue
		}
		if u.Transfer && !includeTransfers {
			continue
		}
		out = append(out, PathSample{Time: u.Time, Path: u.Path})
	}
	return out
}

// PrefixesOnSession returns every prefix for which session si has an
// initial path or at least one update, in address order.
func (st *Stream) PrefixesOnSession(si int) []netip.Prefix {
	seen := make(map[netip.Prefix]bool)
	for p := range st.Initial[si] {
		seen[p] = true
	}
	for i := range st.Updates {
		if st.Updates[i].Session == si {
			seen[st.Updates[i].Prefix] = true
		}
	}
	out := make([]netip.Prefix, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sortPrefixes(out)
	return out
}

// Sim holds the simulation inputs: the pristine topology and the prefix
// origination table, indexed by origin.
type Sim struct {
	graph   *topology.Graph
	origins map[netip.Prefix]bgp.ASN
	// byOrigin lists each origin AS's prefixes in address order; the
	// event loop reads it once per affected origin of every event.
	byOrigin map[bgp.ASN][]netip.Prefix
}

// New builds a simulator over g, where origins maps each announced prefix
// to the AS originating it. Every origin AS must exist in g.
func New(g *topology.Graph, origins map[netip.Prefix]bgp.ASN) (*Sim, error) {
	if len(origins) == 0 {
		return nil, fmt.Errorf("bgpsim: no prefixes to originate")
	}
	byOrigin := make(map[bgp.ASN][]netip.Prefix)
	for p, asn := range origins {
		if g.AS(asn) == nil {
			return nil, fmt.Errorf("bgpsim: origin %v of %v not in topology", asn, p)
		}
		byOrigin[asn] = append(byOrigin[asn], p)
	}
	for _, ps := range byOrigin {
		sortPrefixes(ps)
	}
	return &Sim{graph: g, origins: origins, byOrigin: byOrigin}, nil
}

// Graph returns the pristine topology the simulator was built over.
func (s *Sim) Graph() *topology.Graph { return s.graph }

// Origins returns the prefix origination table (shared, do not mutate).
func (s *Sim) Origins() map[netip.Prefix]bgp.ASN { return s.origins }

// originASNs returns the distinct origin ASes, ascending.
func (s *Sim) originASNs() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(s.byOrigin))
	for a := range s.byOrigin {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// prefixesOf returns the prefixes originated by asn, in address order. The
// slice is the Sim's own index: callers must not modify it.
func (s *Sim) prefixesOf(asn bgp.ASN) []netip.Prefix { return s.byOrigin[asn] }

func samePath(a, b []bgp.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
