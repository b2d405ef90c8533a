package analysis

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
)

// craftTwoSessionStream builds a two-session stream where AS 174 appears
// as an extra on both sessions and AS 6939 on only one.
func craftTwoSessionStream() *bgpsim.Stream {
	st := &bgpsim.Stream{
		Start: t0churn,
		End:   t0churn.Add(30 * 24 * time.Hour),
		Sessions: []bgpsim.Session{
			bgpsim.NewSession("rrc00", 3320, []netip.Prefix{torPfx}),
			bgpsim.NewSession("rrc01", 174, []netip.Prefix{torPfx}),
		},
		Initial: map[int]map[netip.Prefix][]bgp.ASN{
			0: {torPfx: {3320, 1299, 24940}},
			1: {torPfx: {174, 1299, 24940}},
		},
	}
	st.Updates = []bgpsim.UpdateEvent{
		// Session 0: 174 on path for 10h (extra), 6939 for 10h (extra).
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(11 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 6939, 24940}},
		{Time: t0churn.Add(21 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
		// Session 1: 3320 on path for 10h (extra on this session).
		{Time: t0churn.Add(1 * time.Hour), Session: 1, Prefix: torPfx, Path: []bgp.ASN{174, 3320, 24940}},
		{Time: t0churn.Add(11 * time.Hour), Session: 1, Prefix: torPfx, Path: []bgp.ASN{174, 1299, 24940}},
	}
	return st
}

func TestExtraASSetsMinSessions(t *testing.T) {
	st := craftTwoSessionStream()
	tor := map[netip.Prefix]bool{torPfx: true}
	// Union (minSessions=1): 174 and 6939 qualify on session 0 and 3320
	// on session 1, each on exactly one session.
	all, err := ExtraASSets(st, tor, 5*time.Minute, 1, FilterNone)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(all[torPfx], []bgp.ASN{174, 3320, 6939}) {
		t.Fatalf("union = %v", all[torPfx])
	}
	// minSessions=2: no AS qualified on both sessions.
	common, err := ExtraASSets(st, tor, 5*time.Minute, 2, FilterNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(common[torPfx]) != 0 {
		t.Fatalf("common = %v", common[torPfx])
	}
	if _, err := ExtraASSets(st, nil, 0, 1, FilterNone); err == nil {
		t.Fatal("empty prefix set accepted")
	}
}

func TestExtraASesPerTorPrefixPerSession(t *testing.T) {
	st := craftTwoSessionStream()
	counts, err := ExtraASesPerTorPrefix(st, map[netip.Prefix]bool{torPfx: true},
		5*time.Minute, FilterNone)
	if err != nil {
		t.Fatal(err)
	}
	// One sample per (prefix, session) pair: two samples.
	if len(counts) != 2 {
		t.Fatalf("samples = %v", counts)
	}
	bySession := map[int]int{}
	for _, c := range counts {
		bySession[c.Session] = c.Extra
	}
	if bySession[0] != 2 || bySession[1] != 1 {
		t.Fatalf("per-session extras = %v", bySession)
	}
}

// TestDwellExcludesBaseline pins the dwell accounting: an AS off the
// baseline path accrues exactly its on-path time, and baseline ASes never
// count, however long they stay.
func TestDwellExcludesBaseline(t *testing.T) {
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(3 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
	})
	for _, tc := range []struct {
		minDwell time.Duration
		want     []bgp.ASN
	}{{0, []bgp.ASN{174}}, {2 * time.Hour, []bgp.ASN{174}}, {2*time.Hour + 1, nil}} {
		if got := extraASes(t, st, tc.minDwell); !slices.Equal(got, tc.want) {
			t.Errorf("minDwell %v: extra = %v, want %v", tc.minDwell, got, tc.want)
		}
	}
}

func TestTransientASes(t *testing.T) {
	// AS 174: 2 minutes (transient). AS 6939: 10 hours (not transient).
	st := craftStream([]bgpsim.UpdateEvent{
		{Time: t0churn.Add(1 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 174, 24940}},
		{Time: t0churn.Add(1*time.Hour + 2*time.Minute), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 6939, 24940}},
		{Time: t0churn.Add(11 * time.Hour), Session: 0, Prefix: torPfx, Path: []bgp.ASN{3320, 1299, 24940}},
	})
	tr, err := TransientASes(st, map[netip.Prefix]bool{torPfx: true},
		5*time.Minute, FilterNone)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 1 {
		t.Fatalf("samples = %v", tr)
	}
	if tr[0].Transient != 1 {
		t.Fatalf("transient = %d, want 1 (only AS 174)", tr[0].Transient)
	}
	if _, err := TransientASes(st, nil, 0, FilterNone); err == nil {
		t.Fatal("empty prefix set accepted")
	}
}

// TestSamplesInSessionPrefixOrder checks that all three per-(session, Tor
// prefix) sample lists come in (session, prefix address, prefix length)
// order, whatever the iteration order of the maps behind them.
func TestSamplesInSessionPrefixOrder(t *testing.T) {
	const sessions, prefixes = 3, 24
	st := &bgpsim.Stream{Start: t0churn, End: t0churn.Add(30 * 24 * time.Hour)}
	tor := make(map[netip.Prefix]bool)
	st.Initial = make(map[int]map[netip.Prefix][]bgp.ASN)
	for si := 0; si < sessions; si++ {
		peer := bgp.ASN(100 + si)
		var visible []netip.Prefix
		st.Initial[si] = make(map[netip.Prefix][]bgp.ASN)
		for k := prefixes - 1; k >= 0; k-- {
			// Pairs of prefixes share an address and differ in length.
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(k / 2), 0, 0}), 16+k%2)
			tor[p] = true
			visible = append(visible, p)
			st.Initial[si][p] = []bgp.ASN{peer, 1299, 24940}
			// One change per prefix: AS 174 on path for an hour, so every
			// count is 1 and every session median is defined.
			at := t0churn.Add(time.Duration(k+1) * time.Hour)
			st.Updates = append(st.Updates,
				bgpsim.UpdateEvent{Time: at, Session: si, Prefix: p, Path: []bgp.ASN{peer, 174, 24940}},
				bgpsim.UpdateEvent{Time: at.Add(time.Hour), Session: si, Prefix: p, Path: []bgp.ASN{peer, 1299, 24940}})
		}
		st.Sessions = append(st.Sessions, bgpsim.NewSession("rrc00", peer, visible))
	}
	slices.SortStableFunc(st.Updates, func(a, b bgpsim.UpdateEvent) int { return a.Time.Compare(b.Time) })

	inOrder := func(name string, n int, key func(i int) (int, netip.Prefix)) {
		t.Helper()
		if n != sessions*prefixes {
			t.Fatalf("%s: %d samples, want %d", name, n, sessions*prefixes)
		}
		for i := 1; i < n; i++ {
			s0, p0 := key(i - 1)
			s1, p1 := key(i)
			if s0 > s1 || s0 == s1 && (p0.Addr().Compare(p1.Addr()) > 0 ||
				p0.Addr() == p1.Addr() && p0.Bits() >= p1.Bits()) {
				t.Fatalf("%s: sample %d (%d, %v) follows (%d, %v)", name, i, s1, p1, s0, p0)
			}
		}
	}
	ratios, err := PathChangeRatios(st, tor, FilterHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	inOrder("PathChangeRatios", len(ratios), func(i int) (int, netip.Prefix) { return ratios[i].Session, ratios[i].Prefix })
	tr, err := TransientASes(st, tor, 5*time.Minute, FilterHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	inOrder("TransientASes", len(tr), func(i int) (int, netip.Prefix) { return tr[i].Session, tr[i].Prefix })
	extra, err := ExtraASesPerTorPrefix(st, tor, 5*time.Minute, FilterHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	inOrder("ExtraASesPerTorPrefix", len(extra), func(i int) (int, netip.Prefix) { return extra[i].Session, extra[i].Prefix })
}
