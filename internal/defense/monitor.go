package defense

import (
	"fmt"
	"math/bits"
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
// watched prefix and, optionally, on the set of legitimate upstream
// (penultimate) ASes seen during a learning window.
//
// Monitor is safe for concurrent use: Learn, EnableUpstream, Observe and
// Relevant may be called from any number of goroutines, so a streaming
// consumer (internal/monitord) can fan updates out over sharded workers.
// The watchlist and its length masks are immutable after NewMonitor and
// read lock-free; the learned upstreams are guarded by an RWMutex, which
// Observe takes (read-side) only once upstream alarms are armed.
type Monitor struct {
	watched map[uint64]bgp.ASN // iptrie.Key of a watched prefix -> expected origin; immutable
	// lens[o] has bit b set when a watched /b prefix covers first octet o.
	// A watched prefix covering an address covers its first octet, or is
	// covered by it, so a zero mask proves no match without a probe — the
	// common case for background churn — and a match probes only the
	// lengths the mask names.
	lens [256]uint64

	mu             sync.RWMutex
	knownUpstreams map[uint64]map[bgp.ASN]bool
	upstreamAlarms atomic.Bool // until set, Observe takes no lock
}

// NewMonitor builds a monitor watching the given IPv4 prefixes with their
// legitimate origins. Two keys that mask to one prefix must agree on its
// origin. Upstream alarms stay disabled until EnableUpstream is called
// after a learning phase.
func NewMonitor(watched map[netip.Prefix]bgp.ASN) (*Monitor, error) {
	if len(watched) == 0 {
		return nil, fmt.Errorf("defense: nothing to watch")
	}
	m := &Monitor{
		watched:        make(map[uint64]bgp.ASN, len(watched)),
		knownUpstreams: make(map[uint64]map[bgp.ASN]bool),
	}
	for p, origin := range watched {
		k, ok := iptrie.Key(p)
		if !ok {
			return nil, fmt.Errorf("defense: watched prefix %v is not IPv4", p)
		}
		if prev, dup := m.watched[k]; dup && prev != origin {
			return nil, fmt.Errorf("defense: watched prefix %v has origins %v and %v", p.Masked(), prev, origin)
		}
		m.watched[k] = origin
		// A prefix shorter than /8 spans 2^(8-bits) first octets.
		first, span := int(k>>32), 1<<max(8-p.Bits(), 0)
		for o := first; o < first+span; o++ {
			m.lens[o] |= 1 << p.Bits()
		}
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
	plen := int(k & 0xff)
	lens := m.lens[k>>32]
	if lens>>plen&1 != 0 {
		if expected, ok := m.watched[k]; ok {
			return k, expected, true, true
		}
	}
	// Strictly more specific: probe each shorter watched length.
	for shorter := lens & (1<<plen - 1); shorter != 0; shorter &= shorter - 1 {
		if _, ok := m.watched[iptrie.AddrKey(uint32(k>>8), bits.TrailingZeros64(shorter))]; ok {
			return k, 0, false, true
		}
	}
	return k, 0, false, false
}

// Learn records the upstream (penultimate AS) of a benign update for a
// watched prefix; run it over a known-clean window before enabling
// upstream alarms.
func (m *Monitor) Learn(u *bgpsim.UpdateEvent) {
	if u.Withdraw() {
		return
	}
	k, _, exact, _ := m.match(u.Prefix)
	if !exact {
		return
	}
	if up, ok := upstreamOf(u.Path); ok {
		m.mu.Lock()
		set := m.knownUpstreams[k]
		if set == nil {
			set = make(map[bgp.ASN]bool)
			m.knownUpstreams[k] = set
		}
		set[up] = true
		m.mu.Unlock()
	}
}

// EnableUpstream turns on new-upstream alarms (after learning).
func (m *Monitor) EnableUpstream() {
	m.upstreamAlarms.Store(true)
}

// upstreamOf returns the penultimate AS of a path (the origin's
// provider-side neighbor), when the path has one.
func upstreamOf(path []bgp.ASN) (bgp.ASN, bool) {
	if len(path) < 2 {
		return 0, false
	}
	return path[len(path)-2], true
}

// Observe inspects one update and returns any alarms it raises. Announced
// paths run src-first, origin-last (the bgpsim convention).
func (m *Monitor) Observe(u *bgpsim.UpdateEvent) []Alert {
	if u.Withdraw() || len(u.Path) == 0 {
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
	// Exact watched prefix: origin and upstream checks.
	if origin != expected {
		return []Alert{{
			Time: u.Time, Session: u.Session, Prefix: u.Prefix,
			Kind: AlertOriginChange, Observed: origin,
		}}
	}
	if !m.upstreamAlarms.Load() {
		return nil
	}
	up, ok := upstreamOf(u.Path)
	if !ok {
		return nil
	}
	m.mu.RLock()
	known := m.knownUpstreams[k][up]
	m.mu.RUnlock()
	if known {
		return nil
	}
	return []Alert{{
		Time: u.Time, Session: u.Session, Prefix: u.Prefix,
		Kind: AlertNewUpstream, Observed: up,
	}}
}

// MonitorReport aggregates a monitor run over a stream.
type MonitorReport struct {
	Updates int
	Alerts  []Alert
	// ByKind counts alerts per kind.
	ByKind map[AlertKind]int
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
