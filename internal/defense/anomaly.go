package defense

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"quicksand/internal/bgp"
)

// Counter-RAPTOR-style analytics (Sun et al., PAPERS.md): raw monitor
// alerts are necessary but noisy — a single origin-change alert can be a
// legitimate renumbering, while a *burst* of announcements for one
// prefix, or an origin that keeps flapping back and forth, is the
// signature of an active hijack or interception attempt. The
// AnomalyDetector sits on an alert stream (monitord feeds it every alert
// it appends) and escalates raw alerts to scored anomalies using two
// per-prefix analytics:
//
//   - announcement-frequency analysis: alerts per window scored against
//     an EWMA baseline of that prefix's own history, so a prefix with
//     chronic churn needs a much larger burst to escalate than one that
//     has been quiet for days;
//   - origin-flap time analysis: distinct-origin transitions per window,
//     the back-and-forth a hijacker fighting the legitimate origin (or
//     probing intermittently to stay under detection) produces.
//
// All analytics are driven by the alert timestamps, never the wall
// clock, so a replayed stream escalates identically every run.

// AnomalyKind classifies an escalated anomaly.
type AnomalyKind int

const (
	// AnomalyFrequency fires when a prefix's alert rate in the current
	// window bursts far above its own EWMA baseline.
	AnomalyFrequency AnomalyKind = iota
	// AnomalyOriginFlap fires when the observed offending origin for a
	// prefix flips repeatedly within one window.
	AnomalyOriginFlap

	numAnomalyKinds
)

func (k AnomalyKind) String() string {
	switch k {
	case AnomalyFrequency:
		return "frequency-burst"
	case AnomalyOriginFlap:
		return "origin-flap"
	}
	return fmt.Sprintf("AnomalyKind(%d)", int(k))
}

// Anomaly is one escalated, scored event. Score is calibrated so 1.0 is
// the escalation threshold; larger means further above baseline.
type Anomaly struct {
	Time   time.Time
	Prefix netip.Prefix
	Kind   AnomalyKind
	// Score: for frequency anomalies the deviation ratio against the
	// EWMA baseline (or the bootstrap ratio before a baseline exists);
	// for origin flaps the transition count over the threshold.
	Score float64
	// Alerts is the raw alert count in the window at escalation time.
	Alerts int
	// Origins are the distinct offending ASes seen in the window, sorted.
	Origins []bgp.ASN
}

// AnomalyConfig parameterises the detector. The zero value selects the
// defaults noted on each field.
type AnomalyConfig struct {
	// Window is the analytics bucket width (default 1m). Baselines are
	// folded and flap counters reset at window boundaries.
	Window time.Duration
	// FreqThreshold is the deviation score at which a window's alert
	// count escalates once a baseline exists (default 4.0): the count
	// must exceed mean + FreqThreshold*(dev+1).
	FreqThreshold float64
	// FreqBootstrap is the per-window alert count that escalates before
	// any baseline has been learned (default 8) — a cold-start prefix
	// under sudden bombardment must still fire.
	FreqBootstrap int
	// FlapThreshold is the number of origin transitions within one
	// window that escalates an origin-flap anomaly (default 3).
	FlapThreshold int
	// Decay is the EWMA weight given to each newly completed window when
	// folding it into the baseline (default 0.3).
	Decay float64
}

func (c AnomalyConfig) withDefaults() AnomalyConfig {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.FreqThreshold <= 0 {
		c.FreqThreshold = 4.0
	}
	if c.FreqBootstrap <= 0 {
		c.FreqBootstrap = 8
	}
	if c.FlapThreshold <= 0 {
		c.FlapThreshold = 3
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 0.3
	}
	return c
}

// maxZeroFolds bounds how many empty windows a long quiet gap folds into
// the baseline one by one; beyond it the window start jumps directly to
// the gap's end. 32 folds at the default decay already pull the mean
// within e^-9 of zero, so nothing observable is lost.
const maxZeroFolds = 32

type prefixStats struct {
	windowStart time.Time
	started     bool

	count      int // alerts in the current window
	flips      int // origin transitions in the current window
	lastOrigin bgp.ASN
	haveLast   bool
	origins    map[bgp.ASN]struct{}

	mean, dev float64 // EWMA baseline over completed windows
	windows   int     // completed windows folded into the baseline

	firedFreq, firedFlap bool // one escalation per window per kind
}

// AnomalyDetector escalates a stream of raw alerts to scored anomalies.
// Safe for concurrent use; per-prefix results depend only on the order
// of that prefix's own alerts.
type AnomalyDetector struct {
	cfg AnomalyConfig

	mu        sync.Mutex
	prefixes  map[netip.Prefix]*prefixStats
	observed  uint64
	escalated [numAnomalyKinds]uint64
}

// NewAnomalyDetector returns a detector with cfg (zero fields take the
// documented defaults).
func NewAnomalyDetector(cfg AnomalyConfig) *AnomalyDetector {
	return &AnomalyDetector{
		cfg:      cfg.withDefaults(),
		prefixes: make(map[netip.Prefix]*prefixStats),
	}
}

// Observe feeds one raw alert and returns the anomalies it escalates —
// zero, one, or both kinds. Alerts for one prefix must arrive in
// non-decreasing Time order for the window accounting to be meaningful;
// an out-of-order alert is counted into the current window.
func (det *AnomalyDetector) Observe(a Alert) []Anomaly {
	det.mu.Lock()
	defer det.mu.Unlock()
	det.observed++

	st := det.prefixes[a.Prefix]
	if st == nil {
		st = &prefixStats{origins: make(map[bgp.ASN]struct{})}
		det.prefixes[a.Prefix] = st
	}
	if !st.started {
		st.windowStart = a.Time
		st.started = true
	}
	det.rollWindows(st, a.Time)

	st.count++
	st.origins[a.Observed] = struct{}{}
	if st.haveLast && a.Observed != st.lastOrigin {
		st.flips++
	}
	st.lastOrigin = a.Observed
	st.haveLast = true

	var out []Anomaly
	if !st.firedFreq {
		if score, hot := det.freqScore(st); hot {
			st.firedFreq = true
			det.escalated[AnomalyFrequency]++
			out = append(out, det.anomaly(a, st, AnomalyFrequency, score))
		}
	}
	if !st.firedFlap && st.flips >= det.cfg.FlapThreshold {
		st.firedFlap = true
		det.escalated[AnomalyOriginFlap]++
		score := float64(st.flips) / float64(det.cfg.FlapThreshold)
		out = append(out, det.anomaly(a, st, AnomalyOriginFlap, score))
	}
	return out
}

// rollWindows folds completed windows into the EWMA baseline and resets
// the per-window counters, advancing windowStart until it covers t.
func (det *AnomalyDetector) rollWindows(st *prefixStats, t time.Time) {
	if !t.After(st.windowStart.Add(det.cfg.Window)) {
		return
	}
	folds := 0
	for t.After(st.windowStart.Add(det.cfg.Window)) {
		det.foldWindow(st)
		st.windowStart = st.windowStart.Add(det.cfg.Window)
		if folds++; folds >= maxZeroFolds {
			// Long quiet gap: jump to the window containing t.
			gap := t.Sub(st.windowStart)
			st.windowStart = st.windowStart.Add(gap - gap%det.cfg.Window)
			break
		}
	}
	st.count = 0
	st.flips = 0
	st.haveLast = false
	st.origins = make(map[bgp.ASN]struct{})
	st.firedFreq = false
	st.firedFlap = false
}

func (det *AnomalyDetector) foldWindow(st *prefixStats) {
	c := float64(st.count)
	if st.windows == 0 {
		st.mean = c
		st.dev = 0
	} else {
		d := c - st.mean
		st.mean += det.cfg.Decay * d
		if d < 0 {
			d = -d
		}
		st.dev = (1-det.cfg.Decay)*st.dev + det.cfg.Decay*d
	}
	st.windows++
	// Only the first fold uses count; subsequent folds in the same roll
	// are empty windows.
	st.count = 0
}

// freqScore scores the current window's alert count. With a baseline:
// deviation ratio (count-mean)/(threshold*(dev+1)), ≥1 escalates. Before
// any window has completed: bootstrap ratio count/FreqBootstrap.
func (det *AnomalyDetector) freqScore(st *prefixStats) (float64, bool) {
	if st.windows == 0 {
		score := float64(st.count) / float64(det.cfg.FreqBootstrap)
		return score, st.count >= det.cfg.FreqBootstrap
	}
	score := (float64(st.count) - st.mean) / (det.cfg.FreqThreshold * (st.dev + 1))
	return score, score >= 1
}

func (det *AnomalyDetector) anomaly(a Alert, st *prefixStats, kind AnomalyKind, score float64) Anomaly {
	origins := make([]bgp.ASN, 0, len(st.origins))
	for o := range st.origins {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	return Anomaly{
		Time:    a.Time,
		Prefix:  a.Prefix,
		Kind:    kind,
		Score:   score,
		Alerts:  st.count,
		Origins: origins,
	}
}

// Totals reports how many alerts have been observed and how many
// anomalies escalated per kind.
func (det *AnomalyDetector) Totals() (observed uint64, escalated map[AnomalyKind]uint64) {
	det.mu.Lock()
	defer det.mu.Unlock()
	escalated = make(map[AnomalyKind]uint64, numAnomalyKinds)
	for k := AnomalyKind(0); k < numAnomalyKinds; k++ {
		escalated[k] = det.escalated[k]
	}
	return det.observed, escalated
}
