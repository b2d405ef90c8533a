package defense

import (
	"fmt"
	"slices"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

// This file implements §5's data-plane half: clients (or relays) can run
// traceroute-style measurements of the forward path and compare against a
// learned baseline. Control-plane monitoring (monitor.go) sees what BGP
// *says*; data-plane probing sees where packets actually go — which is
// what ultimately betrays an interception even when the bogus
// announcement is scoped out of the victim's control-plane view.

// ProbePath returns the AS-level forward path from src toward the
// destination whose route table is rt — the simulator's stand-in for a
// traceroute run (each AS hop answers).
func ProbePath(rt *topology.CompiledRoutes, src bgp.ASN) ([]bgp.ASN, bool) {
	return rt.PathFrom(src)
}

// PathAlertKind classifies a data-plane anomaly.
type PathAlertKind int

const (
	// PathAlertNewAS fires when the measured path crosses an AS never
	// seen on any baseline measurement for that destination.
	PathAlertNewAS PathAlertKind = iota
	// PathAlertLengthJump fires when the measured path is at least two
	// hops longer than the shortest baseline — interception detours
	// typically stretch the path.
	PathAlertLengthJump
	// PathAlertUnreachable fires when probing finds no path at all (a
	// blackholing hijack swallowed the traffic).
	PathAlertUnreachable
	// PathAlertNoBaseline fires when a measurement arrives for a
	// destination that has no recorded baseline: the prober cannot
	// classify the path, so it reports that one fact instead of
	// flagging every hop as a new AS.
	PathAlertNoBaseline
)

// String names the alert kind.
func (k PathAlertKind) String() string {
	switch k {
	case PathAlertNewAS:
		return "new-as-on-path"
	case PathAlertLengthJump:
		return "path-length-jump"
	case PathAlertUnreachable:
		return "unreachable"
	case PathAlertNoBaseline:
		return "no-baseline"
	}
	return fmt.Sprintf("PathAlertKind(%d)", int(k))
}

// PathAlert is one data-plane anomaly report.
type PathAlert struct {
	Time time.Time
	Dst  bgp.ASN
	Kind PathAlertKind
	// Observed is the offending AS for PathAlertNewAS.
	Observed bgp.ASN
}

// PathProber accumulates baseline forward-path measurements per
// destination AS and flags divergence. One prober serves one client
// (src is fixed by the caller's vantage).
type PathProber struct {
	// seen[dst] is the set of ASes ever measured on the path to dst.
	seen map[bgp.ASN]map[bgp.ASN]bool
	// shortest[dst] is the shortest baseline path length.
	shortest map[bgp.ASN]int
}

// NewPathProber returns an empty prober.
func NewPathProber() *PathProber {
	return &PathProber{
		seen:     make(map[bgp.ASN]map[bgp.ASN]bool),
		shortest: make(map[bgp.ASN]int),
	}
}

// Baseline records one trusted measurement of the path to dst (run
// repeatedly over the learning window so ordinary churn is absorbed into
// the baseline).
func (p *PathProber) Baseline(dst bgp.ASN, path []bgp.ASN) {
	set := p.seen[dst]
	if set == nil {
		set = make(map[bgp.ASN]bool)
		p.seen[dst] = set
	}
	for _, a := range path {
		set[a] = true
	}
	if cur, ok := p.shortest[dst]; !ok || len(path) < cur {
		p.shortest[dst] = len(path)
	}
}

// Check compares a fresh measurement against the baseline and returns any
// alerts. A nil/empty path means the probe got no answer (blackhole).
func (p *PathProber) Check(at time.Time, dst bgp.ASN, path []bgp.ASN) []PathAlert {
	if len(path) == 0 {
		return []PathAlert{{Time: at, Dst: dst, Kind: PathAlertUnreachable}}
	}
	set := p.seen[dst]
	if len(set) == 0 {
		// No baseline for dst: every hop would look like a new AS and
		// a single probe would flood len(path) false alarms. Report the
		// missing baseline once instead.
		return []PathAlert{{Time: at, Dst: dst, Kind: PathAlertNoBaseline}}
	}
	var alerts []PathAlert
	for _, a := range path {
		if !set[a] {
			alerts = append(alerts, PathAlert{Time: at, Dst: dst, Kind: PathAlertNewAS, Observed: a})
		}
	}
	if shortest, ok := p.shortest[dst]; ok && len(path) >= shortest+2 {
		alerts = append(alerts, PathAlert{Time: at, Dst: dst, Kind: PathAlertLengthJump})
	}
	return alerts
}

// KnownASes returns the baseline AS set for dst (for publication to
// clients per §5, alongside the control-plane feed).
func (p *PathProber) KnownASes(dst bgp.ASN) []bgp.ASN {
	set := p.seen[dst]
	out := make([]bgp.ASN, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}
