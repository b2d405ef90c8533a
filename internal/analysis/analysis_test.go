package analysis

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/torconsensus"
)

func mustRIB(t *testing.T, origins map[string]bgp.ASN) *RIB {
	t.Helper()
	m := make(map[netip.Prefix]bgp.ASN, len(origins))
	for s, a := range origins {
		m[netip.MustParsePrefix(s)] = a
	}
	rib, err := BuildRIB(m)
	if err != nil {
		t.Fatal(err)
	}
	return rib
}

func tinyConsensus() *torconsensus.Consensus {
	va := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	mk := func(nick, addr string, flags torconsensus.Flag) torconsensus.Relay {
		return torconsensus.Relay{
			Nickname: nick, Identity: nick, Digest: nick, Published: va,
			Addr:  netip.MustParseAddr(addr),
			Flags: flags | torconsensus.FlagRunning | torconsensus.FlagValid,
		}
	}
	return &torconsensus.Consensus{
		ValidAfter: va,
		Relays: []torconsensus.Relay{
			mk("g1", "78.46.1.1", torconsensus.FlagGuard),
			mk("g2", "78.46.1.2", torconsensus.FlagGuard),
			mk("e1", "93.115.0.9", torconsensus.FlagExit),
			mk("b1", "78.47.0.1", torconsensus.FlagGuard|torconsensus.FlagExit),
			mk("m1", "10.10.0.1", 0),                        // middle in its own prefix
			mk("m2", "78.46.1.3", 0),                        // middle sharing a guard prefix
			mk("lost", "192.0.2.1", torconsensus.FlagGuard), // no covering prefix
		},
	}
}

func tinyRIB(t *testing.T) *RIB {
	return mustRIB(t, map[string]bgp.ASN{
		"78.46.0.0/15":  24940, // covers g1, g2, m2, b1 (78.47.0.1)
		"78.46.1.0/24":  24940, // more specific: g1, g2, m2
		"93.115.0.0/16": 43289, // e1
		"10.0.0.0/8":    9999,  // m1 (middle only)
	})
}

func TestMapTorPrefixes(t *testing.T) {
	tor, unmapped, err := MapTorPrefixes(tinyConsensus(), tinyRIB(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(unmapped) != 1 || unmapped[0] != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("unmapped = %v", unmapped)
	}
	// Middle-only prefix 10/8 must be dropped; the three guard/exit
	// prefixes remain.
	if len(tor) != 3 {
		t.Fatalf("tor prefixes = %d: %v", len(tor), tor)
	}
	p24 := tor[netip.MustParsePrefix("78.46.1.0/24")]
	if p24 == nil || p24.Guards != 2 || p24.guardExit != 2 || p24.Middles != 1 {
		t.Fatalf("78.46.1.0/24 = %+v", p24)
	}
	// b1 (78.47.0.1) falls into the /15, not the /24.
	p15 := tor[netip.MustParsePrefix("78.46.0.0/15")]
	if p15 == nil || p15.Guards != 1 || p15.Exits != 1 || p15.guardExit != 1 {
		t.Fatalf("78.46.0.0/15 = %+v", p15)
	}
	if tor[netip.MustParsePrefix("93.115.0.0/16")].Exits != 1 {
		t.Fatal("93.115.0.0/16 missing exit")
	}
}

func TestMapTorPrefixesNil(t *testing.T) {
	if _, _, err := MapTorPrefixes(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

func TestDatasetCounts(t *testing.T) {
	ds, err := Dataset(tinyConsensus(), tinyRIB(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Relays != 7 || ds.Guards != 4 || ds.Exits != 2 || ds.Both != 1 {
		t.Fatalf("counts: %+v", ds)
	}
	if ds.TorPrefixes != 3 || ds.OriginASes != 2 || ds.Unmapped != 1 {
		t.Fatalf("prefix stats: %+v", ds)
	}
	if ds.RelaysPerPrefix.Max != 2 || ds.RelaysPerPrefix.Min != 1 {
		t.Fatalf("relays/prefix: %+v", ds.RelaysPerPrefix)
	}
}

func TestConcentration(t *testing.T) {
	curve, ranking, err := Concentration(tinyConsensus(), tinyRIB(t))
	if err != nil {
		t.Fatal(err)
	}
	// AS 24940 hosts 3 guard/exit relays, AS 43289 hosts 1.
	if len(ranking) != 2 || ranking[0].ASN != 24940 || ranking[0].Relays != 3 || ranking[1].Relays != 1 {
		t.Fatalf("ranking = %v", ranking)
	}
	if len(curve) != 2 {
		t.Fatalf("curve = %v", curve)
	}
	if math.Abs(curve[0].PercentRelays-75) > 1e-9 {
		t.Fatalf("top-1 percent = %v", curve[0].PercentRelays)
	}
	if math.Abs(curve[1].PercentRelays-100) > 1e-9 {
		t.Fatalf("final percent = %v", curve[1].PercentRelays)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(curve); i++ {
		if curve[i].PercentRelays < curve[i-1].PercentRelays {
			t.Fatal("curve not monotone")
		}
	}
}

func TestCompromiseProb(t *testing.T) {
	if got := CompromiseProb(0.1, 1); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("P(0.1,1) = %v", got)
	}
	if got := CompromiseProb(0.1, 2); math.Abs(got-0.19) > 1e-12 {
		t.Fatalf("P(0.1,2) = %v", got)
	}
	if CompromiseProb(0, 10) != 0 || CompromiseProb(0.5, 0) != 0 {
		t.Fatal("degenerate cases wrong")
	}
	if CompromiseProb(1, 3) != 1 {
		t.Fatal("f=1 should give 1")
	}
	// Monotone in x.
	prev := 0.0
	for x := 1; x <= 30; x++ {
		p := CompromiseProb(0.05, x)
		if p <= prev || p >= 1 {
			t.Fatalf("not strictly increasing at x=%d: %v", x, p)
		}
		prev = p
	}
	// Multi-guard equals single formula with l*x.
	if MultiGuardCompromiseProb(0.05, 4, 3) != CompromiseProb(0.05, 12) {
		t.Fatal("multi-guard formula mismatch")
	}
	if MultiGuardCompromiseProb(0.05, 4, 0) != 0 {
		t.Fatal("l=0 should give 0")
	}
}

// ---- hand-crafted stream fixtures for churn analyses ----

var (
	torPfx  = netip.MustParsePrefix("78.46.0.0/15")
	bgPfx   = netip.MustParsePrefix("50.0.0.0/16")
	bgPfx2  = netip.MustParsePrefix("51.0.0.0/16")
	t0churn = time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
)

// craftStream builds a one-session stream with a known update sequence.
func craftStream(updates []bgpsim.UpdateEvent) *bgpsim.Stream {
	return &bgpsim.Stream{
		Start: t0churn,
		End:   t0churn.Add(30 * 24 * time.Hour),
		Sessions: []bgpsim.Session{
			bgpsim.NewSession("rrc00", 3320, []netip.Prefix{torPfx, bgPfx, bgPfx2}),
		},
		Initial: map[int]map[netip.Prefix][]bgp.ASN{
			0: {
				torPfx: {3320, 1299, 24940},
				bgPfx:  {3320, 174, 100},
				bgPfx2: {3320, 2914, 200},
			},
		},
		Updates: updates,
	}
}

// pathChangeCounts is session si's per-prefix path-change count under
// filter, as PathChangeRatios computes it.
func pathChangeCounts(st *bgpsim.Stream, si int, filter ResetFilter) map[netip.Prefix]int {
	return pathChanges(st, si, dropTransfers(st, si, sessionUpdates(st)[si], filter))
}

func TestCountPathChangesDefinition(t *testing.T) {
	st := craftStream([]bgpsim.UpdateEvent{
		// Same AS set, different order: NOT a change.
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 24940, 1299}},
		// Different AS set: change 1.
		{Time: t0churn.Add(2 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		// Withdrawal: not a change by itself.
		{Time: t0churn.Add(3 * time.Hour), Session: 0, Prefix: torPfx},
		// Re-announcement with the same set as last announced: no change.
		{Time: t0churn.Add(4 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		// Different set again: change 2.
		{Time: t0churn.Add(5 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
		// Prepending repeats an AS but keeps the set: no change.
		{Time: t0churn.Add(6 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 1299, 24940}},
		// Same length, one AS fewer (a repeat where 24940 was): change 3.
		{Time: t0churn.Add(7 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 3320, 1299, 1299}},
	})
	counts := pathChangeCounts(st, 0, FilterNone)
	if counts[torPfx] != 3 {
		t.Fatalf("changes = %d, want 3", counts[torPfx])
	}
	if counts[bgPfx] != 0 || counts[bgPfx2] != 0 {
		t.Fatalf("background counts: %v", counts)
	}
}

func TestCountPathChangesGroundTruthFilter(t *testing.T) {
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		// A transfer announcement with a different path must be ignored.
		{Time: t0churn.Add(2 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 6939, 24940}, Transfer: true},
	})
	if got := pathChangeCounts(st, 0, FilterGroundTruth)[torPfx]; got != 1 {
		t.Fatalf("ground-truth filtered changes = %d, want 1", got)
	}
	if got := pathChangeCounts(st, 0, FilterNone)[torPfx]; got != 2 {
		t.Fatalf("unfiltered changes = %d, want 2", got)
	}
}

func TestTransferHeuristicDetectsBurst(t *testing.T) {
	base := t0churn.Add(10 * time.Hour)
	// A burst re-announcing all three prefixes within seconds (table
	// transfer), with paths that differ from the last known ones.
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: base, Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 6939, 24940}},
		{Time: base.Add(time.Second), Session: 0, Prefix: bgPfx, Path: []bgp.ASN{3320, 6939, 100}},
		{Time: base.Add(2 * time.Second), Session: 0, Prefix: bgPfx2, Path: []bgp.ASN{3320, 6939, 200}},
		// An isolated genuine change hours later.
		{Time: base.Add(5 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
	})
	counts := pathChangeCounts(st, 0, FilterHeuristic)
	// The burst is filtered; the later isolated update is compared
	// against the *initial* path {3320,1299,24940} — same set, so no
	// change at all.
	if counts[torPfx] != 0 {
		t.Fatalf("heuristic-filtered changes = %d, want 0", counts[torPfx])
	}
	// Without filtering the burst counts as changes.
	unfiltered := pathChangeCounts(st, 0, FilterNone)
	if unfiltered[torPfx] != 2 {
		t.Fatalf("unfiltered = %d, want 2", unfiltered[torPfx])
	}
}

// TestTransferHeuristicBurstGap pins the 5 s burst gap: a
// transfer paced 2 s or 5 s per update is still one burst and filtered,
// while 6 s between updates splits it into single-prefix changes.
func TestTransferHeuristicBurstGap(t *testing.T) {
	base := t0churn.Add(10 * time.Hour)
	for _, tc := range []struct {
		spacing time.Duration
		changes int
	}{{2 * time.Second, 0}, {5 * time.Second, 0}, {6 * time.Second, 1}} {
		st := craftStream([]bgpsim.UpdateEvent{
			{Time: base, Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 6939, 24940}},
			{Time: base.Add(tc.spacing), Session: 0, Prefix: bgPfx, Path: []bgp.ASN{3320, 6939, 100}},
			{Time: base.Add(2 * tc.spacing), Session: 0, Prefix: bgPfx2, Path: []bgp.ASN{3320, 6939, 200}},
		})
		if got := pathChangeCounts(st, 0, FilterHeuristic)[torPfx]; got != tc.changes {
			t.Errorf("updates %v apart: %d changes, want %d", tc.spacing, got, tc.changes)
		}
	}
}

func TestTransferHeuristicIgnoresSmallBursts(t *testing.T) {
	base := t0churn.Add(10 * time.Hour)
	// Only one of three prefixes updates: below transferShare, so kept.
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: base, Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 6939, 24940}},
	})
	counts := pathChangeCounts(st, 0, FilterHeuristic)
	if counts[torPfx] != 1 {
		t.Fatalf("small burst was filtered: %v", counts)
	}
}

func TestPathChangeRatios(t *testing.T) {
	st := craftStream([]bgpsim.UpdateEvent{
		// torPfx changes 4 times; background prefixes once each.
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(2 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
		{Time: t0churn.Add(3 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(4 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 6939, 24940}},
		{Time: t0churn.Add(5 * time.Hour), Session: 0, Prefix: bgPfx, Path: []bgp.ASN{3320, 2914, 100}},
		{Time: t0churn.Add(6 * time.Hour), Session: 0, Prefix: bgPfx2, Path: []bgp.ASN{3320, 174, 200}},
	})
	ratios, err := PathChangeRatios(st, map[netip.Prefix]bool{torPfx: true}, FilterNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) != 1 {
		t.Fatalf("ratios = %v", ratios)
	}
	r := ratios[0]
	if r.Changes != 4 || r.Median != 1 || r.Ratio != 4 {
		t.Fatalf("ratio sample = %+v", r)
	}
	ccdf, err := RatioCCDF(ratios)
	if err != nil {
		t.Fatal(err)
	}
	if len(ccdf) != 1 || ccdf[0].Percent != 100 {
		t.Fatalf("ccdf = %v", ccdf)
	}
}

func TestPathChangeRatiosSkipsZeroMedianSessions(t *testing.T) {
	st := craftStream(nil) // no updates at all: median 0
	if _, err := PathChangeRatios(st, map[netip.Prefix]bool{torPfx: true}, FilterNone); err == nil {
		t.Fatal("expected error when no session has a defined ratio")
	}
}

func TestPathChangeRatiosNoTorPrefixes(t *testing.T) {
	st := craftStream(nil)
	if _, err := PathChangeRatios(st, nil, FilterNone); err == nil {
		t.Fatal("empty Tor prefix set accepted")
	}
}

func TestExtraASesDwell(t *testing.T) {
	// Baseline {3320,1299,24940}. AS 174 appears for 10 hours (counts),
	// AS 6939 for 2 minutes (below the 5-minute threshold).
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(11 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 6939, 24940}},
		{Time: t0churn.Add(11*time.Hour + 2*time.Minute), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
	})
	extra := extraASes(t, st, 5*time.Minute)
	if len(extra) != 1 || extra[0] != 174 {
		t.Fatalf("extra = %v, want [174]", extra)
	}
	// With a zero threshold, 6939 qualifies too.
	extra = extraASes(t, st, 0)
	if len(extra) != 2 {
		t.Fatalf("extra (no threshold) = %v", extra)
	}
	// A prefix no session carries gives no sample at all.
	if got, err := ExtraASSets(st, map[netip.Prefix]bool{netip.MustParsePrefix("1.0.0.0/8"): true}, 0, 1, FilterNone); err == nil {
		t.Fatalf("unknown prefix extra = %v", got)
	}
}

// extraASes returns the extra ASes of torPfx on st's one session.
func extraASes(t *testing.T, st *bgpsim.Stream, minDwell time.Duration) []bgp.ASN {
	t.Helper()
	sets, err := ExtraASSets(st, map[netip.Prefix]bool{torPfx: true}, minDwell, 1, FilterNone)
	if err != nil {
		t.Fatal(err)
	}
	return sets[torPfx]
}

func TestExtraASesDwellAccumulatesAcrossVisits(t *testing.T) {
	// AS 174 appears twice for 3 minutes each: total 6 min >= 5 min.
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(1*time.Hour + 3*time.Minute), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
		{Time: t0churn.Add(2 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(2*time.Hour + 3*time.Minute), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
	})
	extra := extraASes(t, st, 5*time.Minute)
	if len(extra) != 1 || extra[0] != 174 {
		t.Fatalf("extra = %v, want [174] (dwell accumulates)", extra)
	}
}

func TestExtraASesWithdrawnTimeDoesNotCount(t *testing.T) {
	// Path withdrawn for 10 hours, then re-announced through 174 briefly.
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx}, // withdraw
		{Time: t0churn.Add(11 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(11*time.Hour + time.Minute), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
	})
	extra := extraASes(t, st, 5*time.Minute)
	if len(extra) != 0 {
		t.Fatalf("extra = %v, want none (1 minute dwell)", extra)
	}
}

func TestExtraASesPerTorPrefix(t *testing.T) {
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
	})
	counts, err := ExtraASesPerTorPrefix(st, map[netip.Prefix]bool{torPfx: true}, 5*time.Minute, FilterNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 1 || counts[0].Extra != 1 {
		t.Fatalf("counts = %v", counts)
	}
	ccdf, err := ExtraASCCDF(counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ccdf) != 1 {
		t.Fatalf("ccdf = %v", ccdf)
	}
	if _, err := ExtraASesPerTorPrefix(st, nil, 0, FilterNone); err == nil {
		t.Fatal("empty Tor prefix set accepted")
	}
}
