package defense

import (
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/iptrie"
	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
	"quicksand/internal/torpath"
)

// world bundles a topology, consensus, and relay->AS mapping for defense
// tests.
type world struct {
	g       *topology.Graph
	cons    *torconsensus.Consensus
	hosting *torconsensus.Hosting
	rib     iptrie.Trie[bgp.ASN]
}

func (w *world) relayAS(addr netip.Addr) (bgp.ASN, bool) {
	_, asn, ok := w.rib.LongestMatch(addr)
	return asn, ok
}

func buildWorld(t testing.TB) *world {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 4, Tier2: 30, Tier3: 200,
		Tier2PeerProb: 0.08, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	t3 := g.TierASNs(3)
	cfg := torconsensus.GenConfig{
		Total: 300, Guards: 120, Exits: 80, Both: 30,
		GuardExitPrefixes:  100,
		MaxRelaysPerPrefix: 12,
		MiddleOnlyPrefixes: 10,
		HostASes:           t3[:120],
		NumHostASes:        70,
		Seed:               4,
		ValidAfter:         time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC),
	}
	cons, hosting, err := torconsensus.GenerateConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{g: g, cons: cons, hosting: hosting}
	for p, asn := range hosting.Prefixes {
		if _, err := w.rib.Insert(p, asn); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

var dNow = time.Date(2014, 7, 2, 0, 0, 0, 0, time.UTC)

func TestStaticOracleBothDirections(t *testing.T) {
	w := buildWorld(t)
	asns := w.g.TierASNs(3)
	a, b := asns[5], asns[50]
	set, err := NewStaticOracle(w.g).SegmentASes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) < 2 {
		t.Fatalf("segment set too small: %v", set)
	}
	hasA, hasB := false, false
	for _, asn := range set {
		if asn == a {
			hasA = true
		}
		if asn == b {
			hasB = true
		}
	}
	if !hasA || !hasB {
		t.Fatalf("endpoints missing from segment set %v", set)
	}
}

func TestDynamicsOracleAddsExtras(t *testing.T) {
	w := buildWorld(t)
	asns := w.g.TierASNs(3)
	a, b := asns[5], asns[50]
	static := NewStaticOracle(w.g)
	base, err := static.SegmentASes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dyn := &DynamicsOracle{Base: static, Extra: map[bgp.ASN][]bgp.ASN{
		b: {999991, 999992},
	}}
	got, err := dyn.SegmentASes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base)+2 {
		t.Fatalf("dynamics set %d, base %d", len(got), len(base))
	}
}

func TestASAwareSelectorProducesDisjointSegments(t *testing.T) {
	w := buildWorld(t)
	sel := torpath.NewSelector(w.cons, 7)
	gs, err := sel.PickGuards(3, dNow)
	if err != nil {
		t.Fatal(err)
	}
	clientAS := w.g.TierASNs(3)[150] // a stub hosting no relays, typically
	destAS := w.g.TierASNs(3)[199]
	aware := &ASAwareSelector{
		Selector: sel,
		Oracle:   NewStaticOracle(w.g),
		RelayAS:  w.relayAS,
	}
	c, err := aware.BuildCircuit(gs, 443, clientAS, destAS)
	if err != nil {
		t.Skipf("no disjoint circuit for this client/dest: %v", err)
	}
	ok, err := aware.CircuitSafe(c, clientAS, destAS)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("returned circuit is not AS-disjoint")
	}
}

// The evaluation claim of E5: AS-aware selection yields strictly fewer
// unsafe circuits than vanilla bandwidth-weighted selection.
func TestASAwareReducesUnsafeCircuits(t *testing.T) {
	w := buildWorld(t)
	sel := torpath.NewSelector(w.cons, 8)
	gs, err := sel.PickGuards(3, dNow)
	if err != nil {
		t.Fatal(err)
	}
	t3 := w.g.TierASNs(3)
	clientAS, destAS := t3[150], t3[199]
	aware := &ASAwareSelector{Selector: sel, Oracle: NewStaticOracle(w.g), RelayAS: w.relayAS}

	unsafeVanilla := 0
	const trials = 60
	usable := 0
	for i := 0; i < trials; i++ {
		c, err := sel.BuildCircuit(gs, 443)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := aware.CircuitSafe(c, clientAS, destAS)
		if err != nil {
			continue
		}
		usable++
		if !ok {
			unsafeVanilla++
		}
	}
	if usable == 0 {
		t.Skip("no mappable circuits for this seed")
	}
	// AS-aware circuits are always safe (by construction); vanilla should
	// produce at least one unsafe circuit for the defense to matter.
	if unsafeVanilla == 0 {
		t.Skip("vanilla selection produced no unsafe circuits for this seed")
	}
	if _, err := aware.BuildCircuit(gs, 443, clientAS, destAS); err != nil {
		t.Fatalf("AS-aware selection found no safe circuit although vanilla found %d/%d unsafe",
			unsafeVanilla, usable)
	}
}

func TestPickGuardsPreferShort(t *testing.T) {
	w := buildWorld(t)
	sel := torpath.NewSelector(w.cons, 9)
	oracle := NewStaticOracle(w.g)
	clientAS := w.g.TierASNs(3)[150]
	gs, err := PickGuardsPreferShort(sel, oracle, w.relayAS, clientAS, 3, 3, dNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.Guards) != 3 {
		t.Fatalf("guards = %d", len(gs.Guards))
	}
	// Compare mean path length against vanilla selection.
	pathLen := func(g *torconsensus.Relay) int {
		asn, ok := w.relayAS(g.Addr)
		if !ok {
			t.Fatalf("unmappable guard %v", g.Addr)
		}
		rt, err := oracle.table(asn)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := rt.Route(clientAS)
		return int(r.PathLen)
	}
	shortSum := 0
	for _, g := range gs.Guards {
		shortSum += pathLen(g)
	}
	vanillaSum := 0
	vanillaN := 0
	for i := 0; i < 10; i++ {
		vgs, err := sel.PickGuards(3, dNow)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range vgs.Guards {
			vanillaSum += pathLen(g)
			vanillaN++
		}
	}
	shortMean := float64(shortSum) / float64(len(gs.Guards))
	vanillaMean := float64(vanillaSum) / float64(vanillaN)
	if shortMean > vanillaMean {
		t.Fatalf("short-path selection mean %.2f > vanilla mean %.2f", shortMean, vanillaMean)
	}
	if _, err := PickGuardsPreferShort(sel, oracle, w.relayAS, clientAS, 0, 3, dNow); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// ---- monitor tests ----

var (
	mpfx  = netip.MustParsePrefix("78.46.0.0/15")
	mpfx2 = netip.MustParsePrefix("93.115.0.0/16")
	mt0   = time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
)

func newTestMonitor(t *testing.T) *Monitor {
	t.Helper()
	m, err := NewMonitor(map[netip.Prefix]bgp.ASN{mpfx: 24940, mpfx2: 43289})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonitorOriginChange(t *testing.T) {
	m := newTestMonitor(t)
	benign := bgpsim.UpdateEvent{Time: mt0, Prefix: mpfx, Path: []bgp.ASN{3320, 1299, 24940}}
	if alerts := m.Observe(&benign); len(alerts) != 0 {
		t.Fatalf("benign update alerted: %v", alerts)
	}
	hijack := bgpsim.UpdateEvent{Time: mt0, Prefix: mpfx, Path: []bgp.ASN{3320, 1299, 666}}
	alerts := m.Observe(&hijack)
	if len(alerts) != 1 || alerts[0].Kind != AlertOriginChange || alerts[0].Observed != 666 {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestMonitorMoreSpecific(t *testing.T) {
	m := newTestMonitor(t)
	moreSpecific := bgpsim.UpdateEvent{
		Time: mt0, Prefix: netip.MustParsePrefix("78.46.64.0/20"),
		Path: []bgp.ASN{3320, 666},
	}
	alerts := m.Observe(&moreSpecific)
	if len(alerts) != 1 || alerts[0].Kind != AlertMoreSpecific {
		t.Fatalf("alerts = %v", alerts)
	}
	// An unrelated prefix raises nothing.
	other := bgpsim.UpdateEvent{Time: mt0, Prefix: netip.MustParsePrefix("8.8.8.0/24"),
		Path: []bgp.ASN{3320, 15169}}
	if alerts := m.Observe(&other); len(alerts) != 0 {
		t.Fatalf("unrelated prefix alerted: %v", alerts)
	}
}

// TestMonitorRelevant pins the one relevance rule: an announcement can
// alert only when its prefix is watched or strictly more specific than a
// watched prefix, and Observe raises an alert (here: a bogus origin) on
// exactly the prefixes Relevant admits. The first-octet map must not
// reject what the rule admits, including prefixes shorter than /8, which
// span several first octets.
func TestMonitorRelevant(t *testing.T) {
	pfx := netip.MustParsePrefix
	cases := []struct {
		name    string
		watched []string
		prefix  netip.Prefix
		want    bool
	}{
		{"exact", []string{"10.10.0.0/16", "10.20.0.0/16"}, pfx("10.20.0.0/16"), true},
		{"more-specific", []string{"10.10.0.0/16", "10.20.0.0/16"}, pfx("10.20.99.0/24"), true},
		{"more-specific /32", []string{"10.10.0.0/16"}, pfx("10.10.1.1/32"), true},
		{"covering", []string{"10.10.0.0/16", "10.20.0.0/16"}, pfx("10.0.0.0/8"), false},
		{"same octet, unrelated", []string{"10.10.0.0/16"}, pfx("10.99.0.0/16"), false},
		{"unrelated octet", []string{"10.10.0.0/16"}, pfx("192.168.0.0/16"), false},
		{"/0 announced", []string{"10.10.0.0/16", "0.0.0.0/8"}, pfx("0.0.0.0/0"), false},
		{"/0 watched, exact", []string{"0.0.0.0/0"}, pfx("0.0.0.0/0"), true},
		{"/0 watched, anything", []string{"0.0.0.0/0"}, pfx("198.18.0.0/15"), true},
		{"/32 watched, exact", []string{"10.1.2.3/32"}, pfx("10.1.2.3/32"), true},
		{"/32 watched, covering", []string{"10.1.2.3/32"}, pfx("10.1.2.0/24"), false},
		{"/6 span, first octet", []string{"8.0.0.0/6"}, pfx("8.5.0.0/16"), true},
		{"/6 span, last octet", []string{"8.0.0.0/6"}, pfx("11.5.0.0/16"), true},
		{"/6 span, past the end", []string{"8.0.0.0/6"}, pfx("12.0.0.0/16"), false},
		{"/6 span, before the start", []string{"8.0.0.0/6"}, pfx("7.255.0.0/16"), false},
		{"non-IPv4", []string{"10.10.0.0/16"}, pfx("2001:db8::/32"), false},
		{"invalid", []string{"10.10.0.0/16"}, netip.Prefix{}, false},
	}
	for _, tc := range cases {
		watched := make(map[netip.Prefix]bgp.ASN)
		for _, w := range tc.watched {
			watched[pfx(w)] = 65000
		}
		m, err := NewMonitor(watched)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := m.Relevant(tc.prefix); got != tc.want {
			t.Errorf("%s: Relevant(%v) = %v, want %v", tc.name, tc.prefix, got, tc.want)
		}
		u := bgpsim.UpdateEvent{Time: mt0, Prefix: tc.prefix, Path: []bgp.ASN{3320, 666}}
		if alerted := len(m.Observe(&u)) > 0; alerted != tc.want {
			t.Errorf("%s: Observe(%v) alerted = %v, want %v", tc.name, tc.prefix, alerted, tc.want)
		}
	}
	if _, err := NewMonitor(map[netip.Prefix]bgp.ASN{pfx("2001:db8::/32"): 65000}); err == nil {
		t.Error("IPv6 watched prefix accepted")
	}
}

func TestMonitorNewUpstream(t *testing.T) {
	m := newTestMonitor(t)
	learn := bgpsim.UpdateEvent{Time: mt0, Prefix: mpfx, Path: []bgp.ASN{3320, 1299, 24940}}
	m.Learn(&learn)
	m.EnableUpstream()
	// Same upstream (1299): quiet.
	if alerts := m.Observe(&learn); len(alerts) != 0 {
		t.Fatalf("known upstream alerted: %v", alerts)
	}
	// New upstream 174 with the right origin: suspicion alarm.
	odd := bgpsim.UpdateEvent{Time: mt0, Prefix: mpfx, Path: []bgp.ASN{3320, 174, 24940}}
	alerts := m.Observe(&odd)
	if len(alerts) != 1 || alerts[0].Kind != AlertNewUpstream || alerts[0].Observed != 174 {
		t.Fatalf("alerts = %v", alerts)
	}
	// Without EnableUpstream the same update is quiet.
	m2 := newTestMonitor(t)
	if alerts := m2.Observe(&odd); len(alerts) != 0 {
		t.Fatalf("upstream alarm fired while disabled: %v", alerts)
	}
}

func TestMonitorIgnoresWithdrawals(t *testing.T) {
	m := newTestMonitor(t)
	w := bgpsim.UpdateEvent{Time: mt0, Prefix: mpfx}
	if alerts := m.Observe(&w); alerts != nil {
		t.Fatalf("withdrawal alerted: %v", alerts)
	}
}

func TestNewMonitorEmpty(t *testing.T) {
	if _, err := NewMonitor(nil); err == nil {
		t.Fatal("empty watch set accepted")
	}
}

func TestRunMonitorNoFalseNegatives(t *testing.T) {
	// Build a stream: clean first half, one injected hijack in the second.
	sess := bgpsim.NewSession("rrc00", 3320, []netip.Prefix{mpfx})
	st := &bgpsim.Stream{
		Start:    mt0,
		End:      mt0.Add(24 * time.Hour),
		Sessions: []bgpsim.Session{sess},
		Initial: map[int]map[netip.Prefix][]bgp.ASN{
			0: {mpfx: {3320, 1299, 24940}},
		},
	}
	for i := 0; i < 10; i++ {
		st.Updates = append(st.Updates, bgpsim.UpdateEvent{
			Time: mt0.Add(time.Duration(i) * time.Hour), Session: 0, Prefix: mpfx,
			Path: []bgp.ASN{3320, 1299, 24940},
		})
	}
	st.Updates = append(st.Updates, bgpsim.UpdateEvent{
		Time: mt0.Add(20 * time.Hour), Session: 0, Prefix: mpfx,
		Path: []bgp.ASN{3320, 1299, 666}, // hijacked origin
	})
	m, err := NewMonitor(map[netip.Prefix]bgp.ASN{mpfx: 24940})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunMonitor(m, st, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind[AlertOriginChange] != 1 {
		t.Fatalf("origin-change alerts = %d, want 1 (report %+v)", rep.ByKind[AlertOriginChange], rep)
	}
	if _, err := RunMonitor(m, st, 1.5); err == nil {
		t.Fatal("bad learnFraction accepted")
	}
}
