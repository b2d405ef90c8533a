// Package analysis implements the paper's measurement analyses — the core
// contribution of "Anonymity on QuickSand":
//
//   - mapping Tor relays to the most specific BGP prefix containing them
//     ("Tor prefixes", §4 methodology) and the dataset statistics the
//     paper reports;
//   - the AS concentration of guard/exit relays (Figure 2, left);
//   - per-session path-change counting with routing-table-transfer
//     filtering, and the Tor-vs-median change ratio (Figure 3, left);
//   - the extra ASes that transiently appear on paths toward Tor
//     prefixes, with a minimum-dwell threshold (Figure 3, right);
//   - the analytical anonymity-degradation model of §3.1.
package analysis

import (
	"fmt"
	"net/netip"
	"sort"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/iptrie"
	"quicksand/internal/stats"
	"quicksand/internal/torconsensus"
)

// RIB is a longest-prefix-match table from announced prefixes to their
// origin AS, the structure the paper consults to find each relay's
// most-specific covering prefix.
type RIB = iptrie.Trie[bgp.ASN]

// BuildRIB loads an origination table into a longest-prefix-match trie.
func BuildRIB(origins map[netip.Prefix]bgp.ASN) (*RIB, error) {
	var t RIB
	for p, asn := range origins {
		if _, err := t.Insert(p, asn); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
	}
	return &t, nil
}

// TorPrefix summarises one Tor prefix: a most-specific announced prefix
// containing at least one guard or exit relay.
type TorPrefix struct {
	Prefix netip.Prefix
	Origin bgp.ASN
	// Guards/Exits/Middles count relays in the prefix by role (relays
	// flagged Guard+Exit count in both Guards and Exits).
	Guards  int
	Exits   int
	Middles int

	guardExit int // distinct guard-or-exit relays
}

// GuardExitRelays returns the number of distinct guard-or-exit relays in
// the prefix (the paper's "relays per Tor prefix" metric counts these).
func (t *TorPrefix) GuardExitRelays() int { return t.guardExit }

// MapTorPrefixes maps every relay in the consensus to its most-specific
// covering prefix in rib and returns the Tor prefixes — those hosting at
// least one guard or exit — plus the relays that no announced prefix
// covers (unrouted relays are excluded from all per-prefix statistics, as
// in the paper).
func MapTorPrefixes(cons *torconsensus.Consensus, rib *RIB) (map[netip.Prefix]*TorPrefix, []netip.Addr, error) {
	if cons == nil || rib == nil {
		return nil, nil, fmt.Errorf("analysis: nil consensus or RIB")
	}
	out := make(map[netip.Prefix]*TorPrefix)
	var unmapped []netip.Addr
	for i := range cons.Relays {
		r := &cons.Relays[i]
		p, origin, ok := rib.LongestMatch(r.Addr)
		if !ok {
			unmapped = append(unmapped, r.Addr)
			continue
		}
		tp := out[p]
		if tp == nil {
			tp = &TorPrefix{Prefix: p, Origin: origin}
			out[p] = tp
		}
		isGuard := r.HasFlag(torconsensus.FlagGuard)
		isExit := r.HasFlag(torconsensus.FlagExit)
		if isGuard {
			tp.Guards++
		}
		if isExit {
			tp.Exits++
		}
		if isGuard || isExit {
			tp.guardExit++
		} else {
			tp.Middles++
		}
	}
	// Keep only prefixes hosting guards or exits — the paper's "Tor
	// prefixes".
	for p, tp := range out {
		if tp.guardExit == 0 {
			delete(out, p)
		}
	}
	return out, unmapped, nil
}

// DatasetStats reproduces the §4 methodology numbers.
type DatasetStats struct {
	Relays   int // total relays in the consensus
	Guards   int // relays flagged Guard
	Exits    int // relays flagged Exit
	Both     int // relays flagged Guard and Exit
	Unmapped int // relays with no covering announced prefix

	TorPrefixes int // distinct prefixes hosting guard/exit relays
	OriginASes  int // distinct ASes announcing those prefixes

	// RelaysPerPrefix summarises guard/exit relays per Tor prefix
	// (median 1, p75 2, max 33 in the paper).
	RelaysPerPrefix stats.Summary

	// Per-session visibility (zero-valued when no stream given):
	// MeanPrefixVisibility is the mean over Tor prefixes of the fraction
	// of sessions that learned the prefix (the paper's 40% average);
	// MaxPrefixVisibility is its maximum (60%).
	MeanPrefixVisibility float64
	MaxPrefixVisibility  float64
	// PrefixesPerSession summarises how many Tor prefixes each session
	// learned (median 438 = 35%, max 1242 = 99% in the paper).
	PrefixesPerSession stats.Summary
}

// Dataset computes the methodology statistics. stream may be nil, in
// which case the visibility fields stay zero.
func Dataset(cons *torconsensus.Consensus, rib *RIB, stream *bgpsim.Stream) (DatasetStats, error) {
	torPrefixes, unmapped, err := MapTorPrefixes(cons, rib)
	if err != nil {
		return DatasetStats{}, err
	}
	ds := DatasetStats{Relays: len(cons.Relays), Unmapped: len(unmapped), TorPrefixes: len(torPrefixes)}
	for i := range cons.Relays {
		g := cons.Relays[i].HasFlag(torconsensus.FlagGuard)
		e := cons.Relays[i].HasFlag(torconsensus.FlagExit)
		if g {
			ds.Guards++
		}
		if e {
			ds.Exits++
		}
		if g && e {
			ds.Both++
		}
	}
	origins := make(map[bgp.ASN]bool)
	var perPrefix []float64
	for _, tp := range torPrefixes {
		origins[tp.Origin] = true
		perPrefix = append(perPrefix, float64(tp.guardExit))
	}
	ds.OriginASes = len(origins)
	// torPrefixes is a map: sort what was gathered in its iteration order
	// so the float sums below come out bit-identical run to run.
	sort.Float64s(perPrefix)
	if ds.RelaysPerPrefix, err = stats.Summarize(perPrefix); err != nil {
		return DatasetStats{}, err
	}

	if stream != nil && len(stream.Sessions) > 0 {
		var visFracs []float64
		var perSession []float64
		for si := range stream.Sessions {
			count := 0
			for p := range torPrefixes {
				if stream.Sessions[si].Sees(p) {
					count++
				}
			}
			perSession = append(perSession, float64(count))
		}
		for p := range torPrefixes {
			n := 0
			for si := range stream.Sessions {
				if stream.Sessions[si].Sees(p) {
					n++
				}
			}
			visFracs = append(visFracs, float64(n)/float64(len(stream.Sessions)))
		}
		if len(visFracs) > 0 {
			sort.Float64s(visFracs)
			mean, _ := stats.Mean(visFracs)
			max, _ := stats.Max(visFracs)
			ds.MeanPrefixVisibility = mean
			ds.MaxPrefixVisibility = max
		}
		if ds.PrefixesPerSession, err = stats.Summarize(perSession); err != nil {
			return DatasetStats{}, err
		}
	}
	return ds, nil
}

// ConcentrationPoint is one point of Figure 2 (left): the top NumASes
// ASes host PercentRelays percent of guard/exit relays.
type ConcentrationPoint struct {
	NumASes       int
	PercentRelays float64
}

// ASRelayCount pairs an AS with its guard/exit relay count.
type ASRelayCount struct {
	ASN    bgp.ASN
	Relays int
}

// Concentration computes the cumulative AS-concentration curve of
// guard/exit relays (Figure 2, left) plus the per-AS ranking that backs
// it, ordered by descending relay count.
func Concentration(cons *torconsensus.Consensus, rib *RIB) ([]ConcentrationPoint, []ASRelayCount, error) {
	torPrefixes, _, err := MapTorPrefixes(cons, rib)
	if err != nil {
		return nil, nil, err
	}
	perAS := make(map[bgp.ASN]int)
	total := 0
	for _, tp := range torPrefixes {
		perAS[tp.Origin] += tp.guardExit
		total += tp.guardExit
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("analysis: no guard/exit relays mapped")
	}
	ranking := make([]ASRelayCount, 0, len(perAS))
	for asn, n := range perAS {
		ranking = append(ranking, ASRelayCount{ASN: asn, Relays: n})
	}
	sort.Slice(ranking, func(i, j int) bool {
		if ranking[i].Relays != ranking[j].Relays {
			return ranking[i].Relays > ranking[j].Relays
		}
		return ranking[i].ASN < ranking[j].ASN
	})
	curve := make([]ConcentrationPoint, len(ranking))
	cum := 0
	for i, rc := range ranking {
		cum += rc.Relays
		curve[i] = ConcentrationPoint{NumASes: i + 1, PercentRelays: 100 * float64(cum) / float64(total)}
	}
	return curve, ranking, nil
}

// CompromiseProb is the §3.1 model: the probability that at least one of
// the x distinct ASes on the client-guard paths is malicious, when each
// AS is malicious independently with probability f.
//
//	P = 1 - (1-f)^x
func CompromiseProb(f float64, x int) float64 {
	if x <= 0 || f <= 0 {
		return 0
	}
	if f >= 1 {
		return 1
	}
	p := 1.0
	for i := 0; i < x; i++ {
		p *= 1 - f
	}
	return 1 - p
}

// MultiGuardCompromiseProb extends the model to l guard relays, each
// contributing x distinct ASes: 1-(1-f)^(l*x). Tor's use of three guards
// amplifies the exposure created by path churn.
func MultiGuardCompromiseProb(f float64, x, l int) float64 {
	if l <= 0 {
		return 0
	}
	return CompromiseProb(f, x*l)
}
