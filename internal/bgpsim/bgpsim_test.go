package bgpsim

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

// testWorld builds a small topology and origin table for simulator tests.
func testWorld(t testing.TB) (*topology.Graph, map[netip.Prefix]bgp.ASN) {
	t.Helper()
	cfg := topology.GenConfig{
		Tier1: 4, Tier2: 20, Tier3: 80,
		Tier2PeerProb: 0.08, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 5,
	}
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	origins := make(map[netip.Prefix]bgp.ASN)
	t3 := g.TierASNs(3)
	for i := 0; i < 60; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(60 + i), 0, 0, 0}), 16)
		origins[p] = t3[i%len(t3)]
	}
	return g, origins
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Collectors = []CollectorSpec{{Name: "rrc00", Sessions: 4}, {Name: "rrc01", Sessions: 3}}
	cfg.Duration = 3 * 24 * time.Hour
	cfg.LinkFailures = 40
	cfg.OriginChurnEvents = 100
	cfg.FlapEpisodes = 4
	cfg.MaxFlapCycles = 60
	cfg.PolicyEvents = 1
	cfg.ResetsPerSessionMean = 1
	return cfg
}

func TestNewValidation(t *testing.T) {
	g, origins := testWorld(t)
	if _, err := New(g, nil); err == nil {
		t.Fatal("empty origins accepted")
	}
	bad := map[netip.Prefix]bgp.ASN{netip.MustParsePrefix("10.0.0.0/8"): 999999}
	if _, err := New(g, bad); err == nil {
		t.Fatal("unknown origin accepted")
	}
	if _, err := New(g, origins); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	g, origins := testWorld(t)
	s, err := New(g, origins)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Collectors = nil },
		func(c *Config) { c.Collectors[0].Sessions = 0 },
		func(c *Config) { c.MinVisibility = 0 },
		func(c *Config) { c.MaxVisibility = 1.5 },
		func(c *Config) { c.BiasFraction = -1 },
		func(c *Config) { c.ExplorationProb = 2 },
		func(c *Config) { c.ConvergenceDelay = 0 },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := s.Run(cfg); err == nil {
			t.Fatalf("invalid config accepted: %+v", cfg)
		}
	}
}

func runStream(t testing.TB) *Stream {
	t.Helper()
	g, origins := testWorld(t)
	s, err := New(g, origins)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunBasicShape(t *testing.T) {
	st := runStream(t)
	if len(st.Sessions) != 7 {
		t.Fatalf("sessions = %d, want 7", len(st.Sessions))
	}
	if len(st.Updates) == 0 {
		t.Fatal("no updates produced")
	}
	if len(st.Initial) != len(st.Sessions) {
		t.Fatalf("initial tables for %d sessions, want %d", len(st.Initial), len(st.Sessions))
	}
	// Updates sorted by time and within the run window (the convergence
	// delay may push the last updates slightly past End).
	for i := 1; i < len(st.Updates); i++ {
		if st.Updates[i].Time.Before(st.Updates[i-1].Time) {
			t.Fatal("updates not sorted by time")
		}
	}
	slack := st.End.Add(5 * time.Minute)
	for _, u := range st.Updates {
		if u.Time.Before(st.Start) || u.Time.After(slack) {
			t.Fatalf("update at %v outside window [%v, %v]", u.Time, st.Start, slack)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runStream(t)
	b := runStream(t)
	if len(a.Updates) != len(b.Updates) || len(a.Resets) != len(b.Resets) {
		t.Fatalf("runs differ: %d/%d updates, %d/%d resets",
			len(a.Updates), len(b.Updates), len(a.Resets), len(b.Resets))
	}
	for i := range a.Updates {
		ua, ub := a.Updates[i], b.Updates[i]
		if !ua.Time.Equal(ub.Time) || ua.Session != ub.Session || ua.Prefix != ub.Prefix || !samePath(ua.Path, ub.Path) {
			t.Fatalf("update %d differs", i)
		}
	}
}

func TestInitialPathsAreValid(t *testing.T) {
	g, origins := testWorld(t)
	s, err := New(g, origins)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for si, table := range st.Initial {
		v := st.Sessions[si].PeerAS
		for p, path := range table {
			if len(path) == 0 {
				t.Fatalf("session %d: empty initial path for %v", si, p)
			}
			if path[0] != v {
				t.Fatalf("session %d: path starts at %v, vantage is %v", si, path[0], v)
			}
			if path[len(path)-1] != origins[p] {
				t.Fatalf("session %d: path for %v ends at %v, origin is %v",
					si, p, path[len(path)-1], origins[p])
			}
			if !g.ValleyFree(path) {
				t.Fatalf("initial path %v not valley-free", path)
			}
		}
	}
}

func TestVisibilityRespected(t *testing.T) {
	st := runStream(t)
	for _, u := range st.Updates {
		if !st.Sessions[u.Session].Sees(u.Prefix) {
			t.Fatalf("update for invisible prefix %v on session %d", u.Prefix, u.Session)
		}
	}
}

func TestResetsProduceTransfers(t *testing.T) {
	st := runStream(t)
	if len(st.Resets) == 0 {
		t.Skip("seed produced no resets")
	}
	r := st.Resets[0]
	count := 0
	for _, u := range st.Updates {
		if u.Session == r.Session && u.Transfer && u.Time.Equal(r.Up) {
			count++
		}
	}
	if count == 0 {
		t.Fatal("reset produced no table-transfer announcements")
	}
	// The transfer should cover a large share of the session's visible,
	// routed prefixes.
	if count < st.Sessions[r.Session].VisibleCount()/2 {
		t.Fatalf("transfer announced only %d of %d visible prefixes",
			count, st.Sessions[r.Session].VisibleCount())
	}
}

func TestPathHistory(t *testing.T) {
	st := runStream(t)
	// Find a (session, prefix) with at least one non-transfer update.
	for _, u := range st.Updates {
		if u.Transfer || u.Withdraw() {
			continue
		}
		hist := st.PathHistory(u.Session, u.Prefix, false)
		if len(hist) < 2 {
			continue
		}
		if !hist[0].Time.Equal(st.Start) {
			t.Fatalf("history does not start at stream start: %v", hist[0].Time)
		}
		for i := 1; i < len(hist); i++ {
			if hist[i].Time.Before(hist[i-1].Time) {
				t.Fatal("history not time-ordered")
			}
		}
		withT := st.PathHistory(u.Session, u.Prefix, true)
		if len(withT) < len(hist) {
			t.Fatal("includeTransfers returned fewer samples")
		}
		return
	}
	t.Skip("no suitable history found for this seed")
}

func TestPrefixesOnSession(t *testing.T) {
	st := runStream(t)
	ps := st.PrefixesOnSession(0)
	if len(ps) == 0 {
		t.Fatal("session 0 saw no prefixes")
	}
	for i := 1; i < len(ps); i++ {
		if !ps[i-1].Addr().Less(ps[i].Addr()) && ps[i-1].Addr() != ps[i].Addr() {
			t.Fatal("prefixes not sorted")
		}
	}
}

func TestUpdatesChangePaths(t *testing.T) {
	// Non-transfer announcements should (almost) always differ from the
	// previous known path — that is the simulator's contract.
	st := runStream(t)
	type key struct {
		si int
		p  netip.Prefix
	}
	last := make(map[key][]bgp.ASN)
	for si, init := range st.Initial {
		for p, path := range init {
			last[key{si, p}] = path
		}
	}
	dups := 0
	changes := 0
	for _, u := range st.Updates {
		k := key{u.Session, u.Prefix}
		if !u.Transfer {
			changes++
			if samePath(u.Path, last[k]) {
				dups++
			}
		}
		if u.Withdraw() {
			delete(last, k)
		} else {
			last[k] = u.Path
		}
	}
	if changes == 0 {
		t.Fatal("no non-transfer updates")
	}
	// Exploration paths can occasionally coincide with the previous
	// path; allow a small fraction.
	if float64(dups) > 0.2*float64(changes) {
		t.Fatalf("%d/%d non-transfer updates were duplicates", dups, changes)
	}
}

func TestMRTRoundTrip(t *testing.T) {
	st := runStream(t)
	collector := "rrc00"
	var rib, upd bytes.Buffer
	if err := st.ExportRIB(&rib, collector); err != nil {
		t.Fatal(err)
	}
	if err := st.ExportUpdates(&upd, collector); err != nil {
		t.Fatal(err)
	}
	got, err := ImportMRT(&rib, &upd, collector)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the original collector-local view for comparison.
	var origSessions []int
	for si := range st.Sessions {
		if st.Sessions[si].Collector == collector {
			origSessions = append(origSessions, si)
		}
	}
	if len(got.Sessions) != len(origSessions) {
		t.Fatalf("sessions = %d, want %d", len(got.Sessions), len(origSessions))
	}
	for local, si := range origSessions {
		if got.Sessions[local].PeerAS != st.Sessions[si].PeerAS {
			t.Fatalf("session %d peer AS mismatch", local)
		}
		// Initial paths survive.
		for p, path := range st.Initial[si] {
			gp, ok := got.Initial[local][p]
			if !ok || !samePath(gp, path) {
				t.Fatalf("initial path for %v lost: %v vs %v", p, gp, path)
			}
		}
	}
	// Update counts per collector match.
	want := 0
	for _, u := range st.Updates {
		if st.Sessions[u.Session].Collector == collector {
			want++
		}
	}
	if len(got.Updates) != want {
		t.Fatalf("updates = %d, want %d", len(got.Updates), want)
	}
	// Reset count matches.
	wantResets := 0
	for _, r := range st.Resets {
		if st.Sessions[r.Session].Collector == collector {
			wantResets++
		}
	}
	if len(got.Resets) != wantResets {
		t.Fatalf("resets = %d, want %d", len(got.Resets), wantResets)
	}
}

func TestExportRIBUnknownCollector(t *testing.T) {
	st := runStream(t)
	var buf bytes.Buffer
	if err := st.ExportRIB(&buf, "nope"); err == nil {
		t.Fatal("unknown collector accepted")
	}
}

func TestSessionHelpers(t *testing.T) {
	st := runStream(t)
	s := &st.Sessions[0]
	ps := s.VisiblePrefixes()
	if len(ps) != s.VisibleCount() {
		t.Fatalf("VisiblePrefixes len %d != count %d", len(ps), s.VisibleCount())
	}
	for _, p := range ps {
		if !s.Sees(p) {
			t.Fatalf("Sees(%v) = false for visible prefix", p)
		}
	}
}

// TestBiasSkewsChurnTowardTargets verifies the mechanism behind Figure 3
// (left): with BiasOrigins set, the biased origins' prefixes accumulate
// more updates per prefix than the rest of the table.
func TestBiasSkewsChurnTowardTargets(t *testing.T) {
	g, origins := testWorld(t)
	s, err := New(g, origins)
	if err != nil {
		t.Fatal(err)
	}
	// Bias toward the origins of the first 10 prefixes.
	biased := make(map[bgp.ASN]bool)
	var biasList []bgp.ASN
	biasPrefixes := make(map[netip.Prefix]bool)
	i := 0
	for p, o := range origins {
		if i >= 10 {
			break
		}
		i++
		biasPrefixes[p] = true
		if !biased[o] {
			biased[o] = true
			biasList = append(biasList, o)
		}
	}
	cfg := testConfig()
	cfg.BiasOrigins = biasList
	cfg.BiasFraction = 0.8
	cfg.ResetsPerSessionMean = 0 // keep transfers out of the counts
	st, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perPrefix := make(map[netip.Prefix]int)
	for _, u := range st.Updates {
		perPrefix[u.Prefix]++
	}
	var biasedSum, otherSum, biasedN, otherN float64
	for p := range origins {
		// Only prefixes whose origin is in the biased set count as
		// "biased" — the bias applies per origin AS.
		if biased[origins[p]] {
			biasedSum += float64(perPrefix[p])
			biasedN++
		} else {
			otherSum += float64(perPrefix[p])
			otherN++
		}
	}
	if biasedN == 0 || otherN == 0 {
		t.Skip("degenerate split")
	}
	biasedMean := biasedSum / biasedN
	otherMean := otherSum / otherN
	if biasedMean <= otherMean {
		t.Fatalf("bias ineffective: biased mean %.1f <= other mean %.1f", biasedMean, otherMean)
	}
}

// TestInjectedHijacksAppearInStream verifies attack injection: ground
// truth is recorded, and during each attack window some session announces
// a path originating at the attacker.
func TestInjectedHijacksAppearInStream(t *testing.T) {
	g, origins := testWorld(t)
	s, err := New(g, origins)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.InjectHijacks = 6
	cfg.HijackDuration = 2 * time.Hour
	cfg.ResetsPerSessionMean = 0
	st, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Attacks) == 0 {
		t.Fatal("no attacks recorded")
	}
	for _, a := range st.Attacks {
		if a.Victim == a.Attacker {
			t.Fatalf("attack %v has victim == attacker", a)
		}
		if origins[a.Prefix] != a.Victim {
			t.Fatalf("attack victim %v is not the origin of %v", a.Victim, a.Prefix)
		}
		if !a.End.After(a.Start) {
			t.Fatalf("attack window inverted: %+v", a)
		}
	}
	// At least one attack must be visible: an update for the victim
	// prefix whose origin is the attacker, within the window (plus
	// convergence delay).
	visible := 0
	for _, a := range st.Attacks {
		for _, u := range st.Updates {
			if u.Prefix != a.Prefix || u.Withdraw() {
				continue
			}
			if u.Time.Before(a.Start) || u.Time.After(a.End.Add(2*cfg.ConvergenceDelay)) {
				continue
			}
			if u.Path[len(u.Path)-1] == a.Attacker {
				visible++
				break
			}
		}
	}
	if visible == 0 {
		t.Fatal("no attack was visible on any session")
	}
	// After each attack ends, the victim's origin is eventually restored
	// on sessions that saw the attacker.
	last := make(map[netip.Prefix]bgp.ASN)
	for _, u := range st.Updates {
		if !u.Withdraw() && len(u.Path) > 0 {
			last[u.Prefix] = u.Path[len(u.Path)-1]
		}
	}
	for _, a := range st.Attacks {
		if o, ok := last[a.Prefix]; ok && o == a.Attacker && a.End.Before(st.End.Add(-time.Hour)) {
			t.Fatalf("prefix %v still announced by attacker after attack end", a.Prefix)
		}
	}
}

// TestExplorationPathsAppear verifies the convergence model: with
// exploration enabled, some updates announce transient non-best paths
// that are replaced within the convergence delay.
func TestExplorationPathsAppear(t *testing.T) {
	g, origins := testWorld(t)
	s, err := New(g, origins)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.ExplorationProb = 1.0
	cfg.ResetsPerSessionMean = 0
	st, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exploration updates precede their stable counterpart by less than
	// the convergence delay on the same (session, prefix).
	type key struct {
		si int
		p  netip.Prefix
	}
	lastAt := make(map[key]time.Time)
	quickReplacements := 0
	for _, u := range st.Updates {
		k := key{u.Session, u.Prefix}
		if prev, ok := lastAt[k]; ok {
			if d := u.Time.Sub(prev); d > 0 && d < cfg.ConvergenceDelay {
				quickReplacements++
			}
		}
		lastAt[k] = u.Time
	}
	if quickReplacements == 0 {
		t.Fatal("no transient exploration paths observed despite ExplorationProb=1")
	}
}
