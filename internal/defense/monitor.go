package defense

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/iptrie"
)

// AlertKind classifies a monitor alarm.
type AlertKind int

const (
	// AlertOriginChange fires when a watched prefix is announced with an
	// unexpected origin AS — the signature of a same-prefix hijack or
	// interception.
	AlertOriginChange AlertKind = iota
	// AlertMoreSpecific fires when a strictly more specific prefix of a
	// watched prefix appears — a more-specific hijack, which every AS
	// eventually sees (§5).
	AlertMoreSpecific
	// AlertNewUpstream fires when a watched prefix is reached through a
	// penultimate AS never seen during the learning window — the weaker,
	// aggressive signal that also catches stealthier manipulations at
	// the cost of false positives.
	AlertNewUpstream
)

// String names the alert kind.
func (k AlertKind) String() string {
	switch k {
	case AlertOriginChange:
		return "origin-change"
	case AlertMoreSpecific:
		return "more-specific"
	case AlertNewUpstream:
		return "new-upstream"
	}
	return fmt.Sprintf("AlertKind(%d)", int(k))
}

// Alert is one monitor alarm. Per §5, "false positives are much more
// acceptable than false negatives": consumers broadcast alerts to clients
// which then avoid the implicated relays.
type Alert struct {
	Time    time.Time
	Session int
	Prefix  netip.Prefix
	Kind    AlertKind
	// Observed is the offending AS: the bogus origin, the origin of the
	// more-specific announcement, or the unfamiliar upstream.
	Observed bgp.ASN
}

// Monitor is a control-plane watcher for relay prefixes (§5's real-time
// monitoring framework). It is trained on the expected origin of each
// watched prefix and, optionally, on the legitimate upstream (penultimate)
// ASes seen during a learning window.
//
// Monitor is safe for concurrent use, so a streaming consumer
// (internal/monitord) can fan updates out over sharded workers. The
// watchlist is immutable after NewMonitor and read lock-free; Observe
// takes the upstreams' read lock only once upstream alarms are armed.
type Monitor struct {
	watched        iptrie.Trie[bgp.ASN] // watched prefix -> expected origin; immutable
	mu             sync.RWMutex
	knownUpstreams map[[2]uint64]bool // {iptrie.Key, upstream AS} pairs seen while learning
	upstreamAlarms atomic.Bool        // until set, Observe takes no lock
}

// NewMonitor builds a monitor watching the given IPv4 prefixes with their
// legitimate origins. Two keys that mask to one prefix must agree on its
// origin. Upstream alarms stay disabled until EnableUpstream is called
// after a learning phase.
func NewMonitor(watched map[netip.Prefix]bgp.ASN) (*Monitor, error) {
	if len(watched) == 0 {
		return nil, fmt.Errorf("defense: nothing to watch")
	}
	m := &Monitor{knownUpstreams: make(map[[2]uint64]bool)}
	for p, origin := range watched {
		k, ok := iptrie.Key(p)
		if !ok {
			return nil, fmt.Errorf("defense: watched prefix %v is not IPv4", p)
		}
		if prev, dup := m.watched.GetKey(k); dup && prev != origin {
			return nil, fmt.Errorf("defense: watched prefix %v has origins %v and %v", p.Masked(), prev, origin)
		}
		m.watched.SetKey(k, origin)
	}
	return m, nil
}

// Relevant reports whether an announcement of p can raise an alert: p is
// watched, or strictly more specific than a watched prefix. Covering,
// unrelated and non-IPv4 prefixes alert nowhere, whatever their path.
// This is the one statement of that rule: Observe applies it first, and a
// front may drop what it rejects before the update reaches a RIB.
func (m *Monitor) Relevant(p netip.Prefix) bool {
	_, _, _, ok := m.match(p)
	return ok
}

// match applies Relevant's rule, also returning p's key and whether p is
// itself watched and, if so, its expected origin.
func (m *Monitor) match(p netip.Prefix) (k uint64, expected bgp.ASN, exact, ok bool) {
	k, ok = iptrie.Key(p)
	if !ok {
		return 0, 0, false, false
	}
	if expected, ok := m.watched.GetKey(k); ok {
		return k, expected, true, true
	}
	return k, 0, false, m.watched.CoversKey(k)
}

// Learn records the upstream (penultimate AS) of a benign update for a
// watched prefix; run it over a known-clean window before enabling
// upstream alarms.
func (m *Monitor) Learn(u *bgpsim.UpdateEvent) {
	if k, _, exact, _ := m.match(u.Prefix); exact && len(u.Path) >= 2 {
		m.mu.Lock()
		m.knownUpstreams[[2]uint64{k, uint64(u.Path[len(u.Path)-2])}] = true
		m.mu.Unlock()
	}
}

// EnableUpstream turns on new-upstream alarms (after learning).
func (m *Monitor) EnableUpstream() {
	m.upstreamAlarms.Store(true)
}

// Observe inspects one update and returns any alarms it raises. Announced
// paths run src-first, origin-last (the bgpsim convention).
func (m *Monitor) Observe(u *bgpsim.UpdateEvent) []Alert {
	if u.Withdraw() {
		return nil
	}
	k, expected, exact, ok := m.match(u.Prefix)
	if !ok {
		return nil
	}
	origin := u.Path[len(u.Path)-1]
	if !exact {
		// Strictly more specific than a watched prefix.
		return []Alert{{
			Time: u.Time, Session: u.Session, Prefix: u.Prefix,
			Kind: AlertMoreSpecific, Observed: origin,
		}}
	}
	// Exact watched prefix: the origin, then the upstream once armed.
	kind, observed := AlertOriginChange, origin
	if origin == expected {
		if len(u.Path) < 2 || !m.upstreamAlarms.Load() {
			return nil
		}
		up := u.Path[len(u.Path)-2]
		m.mu.RLock()
		known := m.knownUpstreams[[2]uint64{k, uint64(up)}]
		m.mu.RUnlock()
		if known {
			return nil
		}
		kind, observed = AlertNewUpstream, up
	}
	return []Alert{{
		Time: u.Time, Session: u.Session, Prefix: u.Prefix,
		Kind: kind, Observed: observed,
	}}
}

// MonitorReport aggregates a monitor run over a stream.
type MonitorReport struct {
	Updates int
	Alerts  []Alert
	ByKind  map[AlertKind]int // alerts per kind
}

// RunMonitor trains the monitor on the first learnFraction of the
// stream's updates (assumed clean) and observes the rest, returning every
// alarm. It is the evaluation harness for E5's detection rates.
func RunMonitor(m *Monitor, st *bgpsim.Stream, learnFraction float64) (*MonitorReport, error) {
	if learnFraction < 0 || learnFraction >= 1 {
		return nil, fmt.Errorf("defense: learnFraction %v out of [0,1)", learnFraction)
	}
	split := int(float64(len(st.Updates)) * learnFraction)
	for i := 0; i < split; i++ {
		m.Learn(&st.Updates[i])
	}
	m.EnableUpstream()
	rep := &MonitorReport{ByKind: make(map[AlertKind]int)}
	for i := split; i < len(st.Updates); i++ {
		rep.Updates++
		for _, a := range m.Observe(&st.Updates[i]) {
			rep.Alerts = append(rep.Alerts, a)
			rep.ByKind[a.Kind]++
		}
	}
	return rep, nil
}
