package analysis

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/stats"
)

// ResetFilter selects how routing-table-transfer updates (the artificial
// churn following a session reset) are removed before counting path
// changes, following Zhang et al. ("Identifying BGP routing table
// transfer", the technique the paper cites for the same purpose).
type ResetFilter int

const (
	// FilterNone counts every update (biased; for comparison only).
	FilterNone ResetFilter = iota
	// FilterGroundTruth uses the simulator's Transfer flag — available
	// only for in-memory streams, like having perfect reset knowledge.
	FilterGroundTruth
	// FilterHeuristic detects transfers as bursts of announcements
	// covering a large share of a session's table within a short window,
	// which is what must be done on real MRT archives.
	FilterHeuristic
)

// TransferHeuristic tunes FilterHeuristic.
type TransferHeuristic struct {
	// Gap chains updates into a burst while consecutive inter-arrival
	// times stay at or below it.
	Gap time.Duration
	// MinFraction is the share of the session's known prefixes a burst
	// must re-announce to be classified as a table transfer.
	MinFraction float64
}

// DefaultTransferHeuristic matches the simulator's reset behaviour:
// transfers re-announce the whole table within seconds.
func DefaultTransferHeuristic() TransferHeuristic {
	return TransferHeuristic{Gap: 5 * time.Second, MinFraction: 0.5}
}

// detectTransferBursts returns, for session si, the set of update indices
// (into st.Updates) classified as table-transfer announcements by the
// burst heuristic.
func detectTransferBursts(st *bgpsim.Stream, si int, h TransferHeuristic) map[int]bool {
	// seen collects the session's prefixes, the ones PrefixesOnSession
	// lists, to count them.
	seen := make(map[netip.Prefix]bool, len(st.Initial[si]))
	for p := range st.Initial[si] {
		seen[p] = true
	}
	var idxs []int
	for i := range st.Updates {
		if st.Updates[i].Session == si {
			idxs = append(idxs, i)
			seen[st.Updates[i].Prefix] = true
		}
	}
	out := make(map[int]bool)
	if len(seen) == 0 {
		return out
	}
	need := h.MinFraction * float64(len(seen))
	prefixes := make(map[netip.Prefix]bool)
	start := 0
	for start < len(idxs) {
		end := start
		for end+1 < len(idxs) {
			cur := st.Updates[idxs[end]].Time
			next := st.Updates[idxs[end+1]].Time
			if next.Sub(cur) > h.Gap {
				break
			}
			end++
		}
		// A burst re-announces at most one prefix per update, so a burst
		// with fewer updates than need cannot qualify: only a longer one
		// gets its prefix set built.
		if float64(end-start+1) >= need {
			clear(prefixes)
			for k := start; k <= end; k++ {
				prefixes[st.Updates[idxs[k]].Prefix] = true
			}
			if float64(len(prefixes)) >= need {
				for k := start; k <= end; k++ {
					out[idxs[k]] = true
				}
			}
		}
		start = end + 1
	}
	return out
}

// isTransfer builds the per-update transfer predicate for a session under
// the chosen filter.
func isTransfer(st *bgpsim.Stream, si int, filter ResetFilter, h TransferHeuristic) func(i int) bool {
	switch filter {
	case FilterGroundTruth:
		return func(i int) bool { return st.Updates[i].Transfer }
	case FilterHeuristic:
		bursts := detectTransferBursts(st, si, h)
		return func(i int) bool { return bursts[i] }
	default:
		return func(int) bool { return false }
	}
}

func asSet(path []bgp.ASN) map[bgp.ASN]bool {
	s := make(map[bgp.ASN]bool, len(path))
	for _, a := range path {
		s[a] = true
	}
	return s
}

func sameASSet(a, b map[bgp.ASN]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// CountPathChanges counts, for every prefix on session si, the paper's
// path changes: transitions between subsequently announced AS paths whose
// AS *sets* differ. Withdrawals do not count by themselves; the next
// announcement is compared against the last announced path. Transfer
// updates are excluded per the filter.
func CountPathChanges(st *bgpsim.Stream, si int, filter ResetFilter, h TransferHeuristic) map[netip.Prefix]int {
	counts := make(map[netip.Prefix]int)
	last := make(map[netip.Prefix]map[bgp.ASN]bool)
	for p, path := range st.Initial[si] {
		counts[p] = 0
		last[p] = asSet(path)
	}
	transfer := isTransfer(st, si, filter, h)
	for i := range st.Updates {
		u := &st.Updates[i]
		if u.Session != si || u.Withdraw() {
			continue
		}
		if transfer(i) {
			continue
		}
		if _, seen := counts[u.Prefix]; !seen {
			counts[u.Prefix] = 0
		}
		set := asSet(u.Path)
		if prev, ok := last[u.Prefix]; ok && !sameASSet(prev, set) {
			counts[u.Prefix]++
		}
		last[u.Prefix] = set
	}
	return counts
}

// ChangeRatio is one Figure-3-left sample: a Tor prefix on a session,
// with its path-change count divided by the session's median count over
// all prefixes.
type ChangeRatio struct {
	Session int
	Prefix  netip.Prefix
	Changes int
	Median  float64
	Ratio   float64
}

// PathChangeRatios computes the Figure 3 (left) samples: for every
// session, the per-prefix change counts, the session median over ALL
// prefixes (Tor and background alike), and the ratio for each Tor prefix
// the session carries. Sessions whose median is zero are skipped (the
// ratio is undefined there), mirroring how the paper normalises per
// session.
func PathChangeRatios(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, filter ResetFilter, h TransferHeuristic) ([]ChangeRatio, error) {
	if len(torPrefixes) == 0 {
		return nil, fmt.Errorf("analysis: no Tor prefixes given")
	}
	var out []ChangeRatio
	for si := range st.Sessions {
		counts := CountPathChanges(st, si, filter, h)
		if len(counts) == 0 {
			continue
		}
		all := make([]float64, 0, len(counts))
		for _, c := range counts {
			all = append(all, float64(c))
		}
		med, err := stats.Median(all)
		if err != nil || med == 0 {
			continue
		}
		for p, c := range counts {
			if !torPrefixes[p] {
				continue
			}
			out = append(out, ChangeRatio{
				Session: si, Prefix: p, Changes: c, Median: med,
				Ratio: float64(c) / med,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no (Tor prefix, session) samples with defined ratio")
	}
	return out, nil
}

// RatioCCDF renders change ratios as the paper's CCDF.
func RatioCCDF(ratios []ChangeRatio) ([]stats.CCDFPoint, error) {
	xs := make([]float64, len(ratios))
	for i, r := range ratios {
		xs[i] = r.Ratio
	}
	return stats.CCDF(xs)
}

// ExtraASes computes, for prefix p on session si, the set of ASes that
// appeared on the announced path during the stream but (a) are not on the
// baseline first path and (b) were on-path for at least minDwell in
// total. The minimum dwell implements the paper's "we did not consider an
// AS crossed for less than 5 minutes" rule. Transfer updates are excluded
// per the filter.
func ExtraASes(st *bgpsim.Stream, si int, p netip.Prefix, minDwell time.Duration, filter ResetFilter, h TransferHeuristic) []bgp.ASN {
	transfer := isTransfer(st, si, filter, h)
	var idxs []int
	for i := range st.Updates {
		if st.Updates[i].Session == si && st.Updates[i].Prefix == p {
			idxs = append(idxs, i)
		}
	}
	return extraASesIndexed(st, si, p, idxs, transfer, minDwell)
}

// dwellTimesIndexed accumulates, for one (session, prefix), the total
// on-path time of every AS that is NOT on the baseline first path; idxs
// must be ascending indices into st.Updates restricted to that pair.
func dwellTimesIndexed(st *bgpsim.Stream, si int, p netip.Prefix, idxs []int, transfer func(int) bool) map[bgp.ASN]time.Duration {
	baselinePath, ok := st.Initial[si][p]
	if !ok {
		return nil
	}
	baseline := asSet(baselinePath)
	dwell := make(map[bgp.ASN]time.Duration)
	cur := baselinePath
	curStart := st.Start
	account := func(until time.Time) {
		if cur == nil || until.Before(curStart) {
			return
		}
		d := until.Sub(curStart)
		for _, a := range cur {
			if !baseline[a] {
				dwell[a] += d
			}
		}
	}
	for _, i := range idxs {
		u := &st.Updates[i]
		if transfer(i) {
			continue
		}
		account(u.Time)
		cur = u.Path
		curStart = u.Time
	}
	account(st.End)
	return dwell
}

// ASDwellTimes returns the per-AS on-path durations of every non-baseline
// AS for prefix p on session si. It is the raw material of both the
// Figure 3 (right) exposure metric (dwell >= 5 min) and the convergence
// transient analysis (dwell < 5 min).
func ASDwellTimes(st *bgpsim.Stream, si int, p netip.Prefix, filter ResetFilter, h TransferHeuristic) map[bgp.ASN]time.Duration {
	transfer := isTransfer(st, si, filter, h)
	var idxs []int
	for i := range st.Updates {
		if st.Updates[i].Session == si && st.Updates[i].Prefix == p {
			idxs = append(idxs, i)
		}
	}
	return dwellTimesIndexed(st, si, p, idxs, transfer)
}

// extraASesIndexed filters dwellTimesIndexed by the minimum dwell.
func extraASesIndexed(st *bgpsim.Stream, si int, p netip.Prefix, idxs []int, transfer func(int) bool, minDwell time.Duration) []bgp.ASN {
	dwell := dwellTimesIndexed(st, si, p, idxs, transfer)
	var out []bgp.ASN
	for a, d := range dwell {
		if d >= minDwell {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TransientASCount is one convergence-exposure sample: ASes that appeared
// on the path to a Tor prefix for LESS than the threshold — too briefly
// for traffic analysis, but long enough to learn that the client talks to
// the Tor network at all (§3.1's route-convergence observation; the
// Harvard case shows mere Tor usage can be incriminating).
type TransientASCount struct {
	Prefix    netip.Prefix
	Session   int
	Transient int
}

// TransientASes computes, per (Tor prefix, session), the number of
// non-baseline ASes whose total dwell stayed below maxDwell — the
// convergence-only observers.
func TransientASes(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, maxDwell time.Duration, filter ResetFilter, h TransferHeuristic) ([]TransientASCount, error) {
	if len(torPrefixes) == 0 {
		return nil, fmt.Errorf("analysis: no Tor prefixes given")
	}
	var out []TransientASCount
	for si := range st.Sessions {
		transfer := isTransfer(st, si, filter, h)
		byPrefix := make(map[netip.Prefix][]int)
		for i := range st.Updates {
			u := &st.Updates[i]
			if u.Session == si && torPrefixes[u.Prefix] {
				byPrefix[u.Prefix] = append(byPrefix[u.Prefix], i)
			}
		}
		for p := range torPrefixes {
			if _, ok := st.Initial[si][p]; !ok {
				continue
			}
			dwell := dwellTimesIndexed(st, si, p, byPrefix[p], transfer)
			n := 0
			for _, d := range dwell {
				if d > 0 && d < maxDwell {
					n++
				}
			}
			out = append(out, TransientASCount{Prefix: p, Session: si, Transient: n})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no Tor prefix visible on any session")
	}
	return out, nil
}

// ExtraASCount is one Figure-3-right sample: for one Tor prefix on one
// collector session, the number of extra ASes that saw its traffic for at
// least the dwell threshold.
type ExtraASCount struct {
	Prefix  netip.Prefix
	Session int
	Extra   int
}

// ExtraASSessionCounts computes, per Tor prefix, how many sessions each
// qualifying extra AS appeared on. ASes seen across many vantage points
// sit near the destination (on the shared tail of all paths) — the
// dynamics a client should account for regardless of where it connects
// from — while single-session extras are vantage-specific.
func ExtraASSessionCounts(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, minDwell time.Duration, filter ResetFilter, h TransferHeuristic) (map[netip.Prefix]map[bgp.ASN]int, error) {
	if len(torPrefixes) == 0 {
		return nil, fmt.Errorf("analysis: no Tor prefixes given")
	}
	counts := make(map[netip.Prefix]map[bgp.ASN]int)
	for si := range st.Sessions {
		// Build the transfer predicate and per-prefix update index once
		// per session; the naive per-prefix rescan is quadratic.
		transfer := isTransfer(st, si, filter, h)
		byPrefix := make(map[netip.Prefix][]int)
		for i := range st.Updates {
			u := &st.Updates[i]
			if u.Session == si && torPrefixes[u.Prefix] {
				byPrefix[u.Prefix] = append(byPrefix[u.Prefix], i)
			}
		}
		for p := range torPrefixes {
			if _, ok := st.Initial[si][p]; !ok {
				continue
			}
			if counts[p] == nil {
				counts[p] = make(map[bgp.ASN]int)
			}
			for _, a := range extraASesIndexed(st, si, p, byPrefix[p], transfer, minDwell) {
				counts[p][a]++
			}
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("analysis: no Tor prefix visible on any session")
	}
	return counts, nil
}

// ExtraASSets returns, per Tor prefix, the extra ASes that qualified on
// at least minSessions sessions (use 1 for the full union — the §5 "list
// of ASes used to reach each destination prefix in the last month").
func ExtraASSets(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, minDwell time.Duration, minSessions int, filter ResetFilter, h TransferHeuristic) (map[netip.Prefix][]bgp.ASN, error) {
	counts, err := ExtraASSessionCounts(st, torPrefixes, minDwell, filter, h)
	if err != nil {
		return nil, err
	}
	if minSessions < 1 {
		minSessions = 1
	}
	out := make(map[netip.Prefix][]bgp.ASN, len(counts))
	for p, set := range counts {
		var ases []bgp.ASN
		for a, n := range set {
			if n >= minSessions {
				ases = append(ases, a)
			}
		}
		sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
		out[p] = ases
	}
	return out, nil
}

// ExtraASesPerTorPrefix computes the Figure 3 (right) samples: one sample
// per (Tor prefix, session) pair, counting the extra ASes that session
// saw on its paths to the prefix over the window. This per-vantage view
// matches the left figure's per-session normalisation and the paper's
// "in 50% of the cases" phrasing.
func ExtraASesPerTorPrefix(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, minDwell time.Duration, filter ResetFilter, h TransferHeuristic) ([]ExtraASCount, error) {
	if len(torPrefixes) == 0 {
		return nil, fmt.Errorf("analysis: no Tor prefixes given")
	}
	var out []ExtraASCount
	for si := range st.Sessions {
		transfer := isTransfer(st, si, filter, h)
		byPrefix := make(map[netip.Prefix][]int)
		for i := range st.Updates {
			u := &st.Updates[i]
			if u.Session == si && torPrefixes[u.Prefix] {
				byPrefix[u.Prefix] = append(byPrefix[u.Prefix], i)
			}
		}
		for p := range torPrefixes {
			if _, ok := st.Initial[si][p]; !ok {
				continue
			}
			extra := extraASesIndexed(st, si, p, byPrefix[p], transfer, minDwell)
			out = append(out, ExtraASCount{Prefix: p, Session: si, Extra: len(extra)})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no Tor prefix visible on any session")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		if out[i].Prefix.Addr() != out[j].Prefix.Addr() {
			return out[i].Prefix.Addr().Less(out[j].Prefix.Addr())
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out, nil
}

// ExtraASCCDF renders extra-AS counts as the paper's CCDF.
func ExtraASCCDF(counts []ExtraASCount) ([]stats.CCDFPoint, error) {
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c.Extra)
	}
	return stats.CCDF(xs)
}
