package analysis

import (
	"fmt"
	"net/netip"
	"slices"
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

// FilterHeuristic chains a session's updates into one burst while
// consecutive inter-arrival times stay at or below transferGap, and
// classifies a burst as a table transfer when it re-announces at least
// transferShare of the session's known prefixes. Both match the
// simulator's reset behaviour: transfers re-announce the whole table
// within seconds.
const (
	transferGap   = 5 * time.Second
	transferShare = 0.5
)

// sessionUpdates is the one pass over the stream an analysis makes: it
// groups the indices of st.Updates by session, each group ascending.
// Updates naming no session in st.Sessions are left out.
func sessionUpdates(st *bgpsim.Stream) [][]int32 {
	out := make([][]int32, len(st.Sessions))
	for i := range st.Updates {
		if si := st.Updates[i].Session; si >= 0 && si < len(out) {
			out[si] = append(out[si], int32(i))
		}
	}
	return out
}

// dropTransfers removes from session si's update indices, in place, the
// ones the filter classifies as table transfers.
func dropTransfers(st *bgpsim.Stream, si int, idxs []int32, filter ResetFilter) []int32 {
	switch filter {
	case FilterGroundTruth:
		return slices.DeleteFunc(idxs, func(i int32) bool { return st.Updates[i].Transfer })
	case FilterHeuristic:
		return dropBursts(st, si, idxs)
	default:
		return idxs
	}
}

// dropBursts is FilterHeuristic: it removes from session si's update
// indices, in place, every burst that re-announces at least
// transferShare of the prefixes the session carries (those with a
// baseline path or at least one update).
func dropBursts(st *bgpsim.Stream, si int, idxs []int32) []int32 {
	seen := make(map[netip.Prefix]bool, len(st.Initial[si]))
	for p := range st.Initial[si] {
		seen[p] = true
	}
	for _, i := range idxs {
		seen[st.Updates[i].Prefix] = true
	}
	need := transferShare * float64(len(seen))
	prefixes := make(map[netip.Prefix]bool)
	kept := idxs[:0]
	for start := 0; start < len(idxs); {
		end := start + 1
		for end < len(idxs) && st.Updates[idxs[end]].Time.Sub(st.Updates[idxs[end-1]].Time) <= transferGap {
			end++
		}
		burst := idxs[start:end]
		start = end
		// A burst re-announces at most one prefix per update, so a burst
		// with fewer updates than need cannot qualify: only a longer one
		// gets its prefix set built.
		if float64(len(burst)) >= need {
			clear(prefixes)
			for _, i := range burst {
				prefixes[st.Updates[i].Prefix] = true
			}
			if float64(len(prefixes)) >= need {
				continue
			}
		}
		kept = append(kept, burst...)
	}
	return kept
}

func asSet(path []bgp.ASN) map[bgp.ASN]bool {
	s := make(map[bgp.ASN]bool, len(path))
	for _, a := range path {
		s[a] = true
	}
	return s
}

// sameASSet reports whether paths a and b visit the same set of ASes.
// Most announcements repeat their prefix's last path, so equal paths
// answer at once; otherwise both are sorted and deduplicated in buf, a
// scratch buffer kept by the caller (paths themselves are shared and
// read-only).
func sameASSet(a, b []bgp.ASN, buf *[]bgp.ASN) bool {
	if slices.Equal(a, b) {
		return true
	}
	s := append(append((*buf)[:0], a...), b...)
	*buf = s
	sa, sb := s[:len(a)], s[len(a):]
	slices.Sort(sa)
	slices.Sort(sb)
	return slices.Equal(slices.Compact(sa), slices.Compact(sb))
}

// pathChanges counts, for every prefix on session si, the paper's path
// changes over the session's ascending update indices idxs (transfers
// already removed): transitions between subsequently announced AS paths
// whose AS *sets* differ. Withdrawals do not count by themselves; the
// next announcement is compared against the last announced path.
func pathChanges(st *bgpsim.Stream, si int, idxs []int32) map[netip.Prefix]int {
	counts := make(map[netip.Prefix]int)
	last := make(map[netip.Prefix][]bgp.ASN) // the last announced path
	for p, path := range st.Initial[si] {
		counts[p] = 0
		last[p] = path
	}
	var buf []bgp.ASN
	for _, i := range idxs {
		u := &st.Updates[i]
		if u.Withdraw() {
			continue
		}
		if _, seen := counts[u.Prefix]; !seen {
			counts[u.Prefix] = 0
		}
		if prev, ok := last[u.Prefix]; ok && !sameASSet(prev, u.Path, &buf) {
			counts[u.Prefix]++
		}
		last[u.Prefix] = u.Path
	}
	return counts
}

// sortedPrefixes returns the keys of set in (address, length) order: the
// order every per-(session, prefix) sample list is emitted in.
func sortedPrefixes(set map[netip.Prefix]bool) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	slices.SortFunc(out, bgp.ComparePrefix)
	return out
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
// session. Samples come in (session, prefix) order.
func PathChangeRatios(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, filter ResetFilter) ([]ChangeRatio, error) {
	if len(torPrefixes) == 0 {
		return nil, fmt.Errorf("analysis: no Tor prefixes given")
	}
	tor := sortedPrefixes(torPrefixes)
	var out []ChangeRatio
	for si, idxs := range sessionUpdates(st) {
		counts := pathChanges(st, si, dropTransfers(st, si, idxs, filter))
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
		for _, p := range tor {
			if c, ok := counts[p]; ok {
				out = append(out, ChangeRatio{
					Session: si, Prefix: p, Changes: c, Median: med,
					Ratio: float64(c) / med,
				})
			}
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

// walkTorDwell calls fn once per (session, Tor prefix) pair with a
// baseline path on that session, in (session, prefix) order, with the
// total on-path time of every AS that is NOT on the baseline first path.
// Transfer updates are excluded per the filter, and time spent withdrawn
// counts for no AS. The dwell map is reused between calls. It is the raw
// material of both the Figure 3 (right) exposure metric (dwell >= 5 min)
// and the convergence transient analysis (dwell < 5 min).
func walkTorDwell(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, filter ResetFilter, fn func(si int, p netip.Prefix, dwell map[bgp.ASN]time.Duration)) error {
	if len(torPrefixes) == 0 {
		return fmt.Errorf("analysis: no Tor prefixes given")
	}
	tor := sortedPrefixes(torPrefixes)
	dwell := make(map[bgp.ASN]time.Duration)
	visited := false
	for si, idxs := range sessionUpdates(st) {
		byPrefix := make(map[netip.Prefix][]int32)
		for _, i := range dropTransfers(st, si, idxs, filter) {
			if p := st.Updates[i].Prefix; torPrefixes[p] {
				byPrefix[p] = append(byPrefix[p], i)
			}
		}
		for _, p := range tor {
			baselinePath, ok := st.Initial[si][p]
			if !ok {
				continue
			}
			baseline := asSet(baselinePath)
			clear(dwell)
			cur, curStart := baselinePath, st.Start
			account := func(until time.Time) {
				if until.Before(curStart) {
					return
				}
				d := until.Sub(curStart)
				for _, a := range cur {
					if !baseline[a] {
						dwell[a] += d
					}
				}
			}
			for _, i := range byPrefix[p] {
				u := &st.Updates[i]
				account(u.Time)
				cur, curStart = u.Path, u.Time
			}
			account(st.End)
			fn(si, p, dwell)
			visited = true
		}
	}
	if !visited {
		return fmt.Errorf("analysis: no Tor prefix visible on any session")
	}
	return nil
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
// convergence-only observers. Samples come in (session, prefix) order.
func TransientASes(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, maxDwell time.Duration, filter ResetFilter) ([]TransientASCount, error) {
	var out []TransientASCount
	err := walkTorDwell(st, torPrefixes, filter, func(si int, p netip.Prefix, dwell map[bgp.ASN]time.Duration) {
		n := 0
		for _, d := range dwell {
			if d > 0 && d < maxDwell {
				n++
			}
		}
		out = append(out, TransientASCount{Prefix: p, Session: si, Transient: n})
	})
	if err != nil {
		return nil, err
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

// ExtraASSets returns, per Tor prefix visible on some session, the extra
// ASes — off the session's baseline first path, on-path for at least
// minDwell in total — that qualified on at least minSessions sessions
// (use 1 for the full union — the §5 "list of ASes used to reach each
// destination prefix in the last month"). ASes seen across many vantage
// points sit near the destination (on the shared tail of all paths) —
// the dynamics a client should account for regardless of where it
// connects from — while single-session extras are vantage-specific.
func ExtraASSets(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, minDwell time.Duration, minSessions int, filter ResetFilter) (map[netip.Prefix][]bgp.ASN, error) {
	sessions := make(map[netip.Prefix]map[bgp.ASN]int)
	err := walkTorDwell(st, torPrefixes, filter, func(_ int, p netip.Prefix, dwell map[bgp.ASN]time.Duration) {
		if sessions[p] == nil {
			sessions[p] = make(map[bgp.ASN]int)
		}
		for a, d := range dwell {
			if d >= minDwell {
				sessions[p][a]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	minSessions = max(minSessions, 1)
	out := make(map[netip.Prefix][]bgp.ASN, len(sessions))
	for p, set := range sessions {
		var ases []bgp.ASN
		for a, n := range set {
			if n >= minSessions {
				ases = append(ases, a)
			}
		}
		slices.Sort(ases)
		out[p] = ases
	}
	return out, nil
}

// ExtraASesPerTorPrefix computes the Figure 3 (right) samples: one sample
// per (Tor prefix, session) pair, counting the extra ASes — off the
// baseline first path, on-path for at least minDwell in total, the
// paper's "we did not consider an AS crossed for less than 5 minutes"
// rule — that session saw on its paths to the prefix over the window.
// This per-vantage view matches the left figure's per-session
// normalisation and the paper's "in 50% of the cases" phrasing. Samples
// come in (session, prefix) order.
func ExtraASesPerTorPrefix(st *bgpsim.Stream, torPrefixes map[netip.Prefix]bool, minDwell time.Duration, filter ResetFilter) ([]ExtraASCount, error) {
	var out []ExtraASCount
	err := walkTorDwell(st, torPrefixes, filter, func(si int, p netip.Prefix, dwell map[bgp.ASN]time.Duration) {
		n := 0
		for _, d := range dwell {
			if d >= minDwell {
				n++
			}
		}
		out = append(out, ExtraASCount{Prefix: p, Session: si, Extra: n})
	})
	if err != nil {
		return nil, err
	}
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
