package torconsensus

import (
	"bytes"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
)

func sampleConsensus() *Consensus {
	va := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	return &Consensus{
		ValidAfter: va, FreshUntil: va.Add(time.Hour), ValidUntil: va.Add(3 * time.Hour),
		Relays: []Relay{
			{
				Nickname: "alpha", Identity: "aWRlbnRpdHkx", Digest: "ZGlnZXN0MQ",
				Published: va.Add(-2 * time.Hour),
				Addr:      netip.MustParseAddr("78.46.1.10"), ORPort: 9001,
				Flags:     FlagGuard | FlagFast | FlagRunning | FlagStable | FlagValid,
				Bandwidth: 5120, ExitPolicy: "reject 1-65535",
			},
			{
				Nickname: "beta", Identity: "aWRlbnRpdHky", Digest: "ZGlnZXN0Mg",
				Published: va.Add(-3 * time.Hour),
				Addr:      netip.MustParseAddr("93.115.2.3"), ORPort: 443, DirPort: 80,
				Flags:     FlagExit | FlagFast | FlagRunning | FlagValid,
				Bandwidth: 900, ExitPolicy: "accept 80,443",
			},
			{
				Nickname: "gamma", Identity: "aWRlbnRpdHkz", Digest: "ZGlnZXN0Mw",
				Published: va.Add(-time.Hour),
				Addr:      netip.MustParseAddr("10.9.8.7"), ORPort: 9001,
				Flags:     FlagFast | FlagRunning | FlagValid,
				Bandwidth: 300, ExitPolicy: "reject 1-65535",
			},
		},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	c := sampleConsensus()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ValidAfter.Equal(c.ValidAfter) || !got.ValidUntil.Equal(c.ValidUntil) {
		t.Fatalf("times: %+v", got)
	}
	if len(got.Relays) != 3 {
		t.Fatalf("relays = %d", len(got.Relays))
	}
	for i := range c.Relays {
		a, b := c.Relays[i], got.Relays[i]
		if a.Nickname != b.Nickname || a.Identity != b.Identity || a.Digest != b.Digest ||
			a.Addr != b.Addr || a.ORPort != b.ORPort || a.DirPort != b.DirPort ||
			a.Flags != b.Flags || a.Bandwidth != b.Bandwidth || a.ExitPolicy != b.ExitPolicy ||
			!a.Published.Equal(b.Published) {
			t.Fatalf("relay %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"network-status-version 2\n",
		"valid-after nonsense\n",
		"r too few fields\n",
		"s Guard\n", // s before r
		"w Bandwidth=1\n",
		"p accept 80\n",
		"r n id dg 2014-07-01 00:00:00 notanip 9001 0\n",
		"r n id dg 2014-07-01 00:00:00 1.2.3.4 notaport 0\n",
		"r n id dg 2014-07-01 00:00:00 1.2.3.4 9001 0\ns NotAFlag\n",
		"r n id dg 2014-07-01 00:00:00 1.2.3.4 9001 0\nw Bandwidth=abc\n",
		"", // no relays
	}
	for i, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Fatalf("case %d: malformed document accepted: %q", i, doc)
		}
	}
}

func TestParseToleratesUnknownKeywords(t *testing.T) {
	doc := "network-status-version 3\n" +
		"shiny-new-keyword whatever\n" +
		"r n aWQ ZGc 2014-07-01 00:00:00 1.2.3.4 9001 0\n" +
		"s Guard Running Valid\n" +
		"w Bandwidth=100\n"
	c, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Relays) != 1 || !c.Relays[0].IsGuard() {
		t.Fatalf("got %+v", c.Relays)
	}
}

func TestFlagStringRoundTrip(t *testing.T) {
	f := FlagGuard | FlagExit | FlagRunning
	s := f.String()
	var back Flag
	for _, name := range strings.Fields(s) {
		fl, ok := ParseFlag(name)
		if !ok {
			t.Fatalf("unknown flag name %q", name)
		}
		back |= fl
	}
	if back != f {
		t.Fatalf("round trip %v != %v", back, f)
	}
	if _, ok := ParseFlag("Bogus"); ok {
		t.Fatal("ParseFlag accepted bogus name")
	}
}

func TestGuardExitPredicates(t *testing.T) {
	c := sampleConsensus()
	if g := c.Guards(); len(g) != 1 || g[0].Nickname != "alpha" {
		t.Fatalf("Guards = %v", g)
	}
	if e := c.Exits(); len(e) != 1 || e[0].Nickname != "beta" {
		t.Fatalf("Exits = %v", e)
	}
	if r := c.Running(); len(r) != 3 {
		t.Fatalf("Running = %d", len(r))
	}
	bad := Relay{Flags: FlagExit | FlagRunning | FlagValid | FlagBadExit}
	if bad.IsExit() {
		t.Fatal("BadExit relay counted as exit")
	}
}

func TestAllowsPort(t *testing.T) {
	r := Relay{ExitPolicy: "accept 80,443"}
	if !r.AllowsPort(443) || r.AllowsPort(22) {
		t.Fatal("accept list wrong")
	}
	r = Relay{ExitPolicy: "reject 25,119"}
	if !r.AllowsPort(80) || r.AllowsPort(25) {
		t.Fatal("reject list wrong")
	}
	r = Relay{ExitPolicy: "accept 20-23,80"}
	if !r.AllowsPort(21) || r.AllowsPort(24) {
		t.Fatal("range handling wrong")
	}
	r = Relay{}
	if r.AllowsPort(80) {
		t.Fatal("empty policy should reject")
	}
	r = Relay{ExitPolicy: "accept 99999"}
	if r.AllowsPort(80) {
		t.Fatal("invalid span should reject")
	}
}

// --- generator tests ---

func hostPool(n int) []bgp.ASN {
	out := make([]bgp.ASN, n)
	for i := range out {
		out[i] = bgp.ASN(10001 + i)
	}
	return out
}

func smallGenConfig() GenConfig {
	return GenConfig{
		Total: 500, Guards: 200, Exits: 100, Both: 40,
		GuardExitPrefixes:  140,
		MaxRelaysPerPrefix: 20,
		MiddleOnlyPrefixes: 30,
		HostASes:           hostPool(120),
		NumHostASes:        80,
		Seed:               3,
		ValidAfter:         time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC),
	}
}

func TestGenerateCounts(t *testing.T) {
	cfg := smallGenConfig()
	c, host, err := GenerateConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Relays) != cfg.Total {
		t.Fatalf("relays = %d, want %d", len(c.Relays), cfg.Total)
	}
	var guards, exits, both int
	for i := range c.Relays {
		r := &c.Relays[i]
		g := r.HasFlag(FlagGuard)
		e := r.HasFlag(FlagExit)
		if g {
			guards++
		}
		if e {
			exits++
		}
		if g && e {
			both++
		}
	}
	if guards != cfg.Guards || exits != cfg.Exits || both != cfg.Both {
		t.Fatalf("guards=%d exits=%d both=%d, want %d/%d/%d",
			guards, exits, both, cfg.Guards, cfg.Exits, cfg.Both)
	}
	if len(host.RelayPrefix) != cfg.Total {
		t.Fatalf("RelayPrefix entries = %d", len(host.RelayPrefix))
	}
}

func TestGenerateHostingShape(t *testing.T) {
	cfg := smallGenConfig()
	c, host, err := GenerateConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count guard/exit relays per prefix.
	perPrefix := make(map[netip.Prefix]int)
	for i := range c.Relays {
		r := &c.Relays[i]
		if !r.HasFlag(FlagGuard) && !r.HasFlag(FlagExit) {
			continue
		}
		perPrefix[host.RelayPrefix[r.Addr]]++
	}
	if len(perPrefix) != cfg.GuardExitPrefixes {
		t.Fatalf("guard/exit prefixes = %d, want %d", len(perPrefix), cfg.GuardExitPrefixes)
	}
	counts := make([]int, 0, len(perPrefix))
	maxCount := 0
	for _, n := range perPrefix {
		counts = append(counts, n)
		if n > maxCount {
			maxCount = n
		}
	}
	sort.Ints(counts)
	if med := counts[len(counts)/2]; med > 2 {
		t.Fatalf("median relays/prefix = %d, want <= 2", med)
	}
	if maxCount != cfg.MaxRelaysPerPrefix {
		t.Fatalf("max relays/prefix = %d, want %d", maxCount, cfg.MaxRelaysPerPrefix)
	}
	// Origin AS count matches.
	origins := host.OriginASes()
	if len(origins) > cfg.NumHostASes {
		t.Fatalf("origin ASes = %d, want <= %d", len(origins), cfg.NumHostASes)
	}
	// Every relay address is inside its hosting prefix.
	for addr, p := range host.RelayPrefix {
		if !p.Contains(addr) {
			t.Fatalf("relay %v outside its prefix %v", addr, p)
		}
	}
}

func TestGeneratePrefixesDisjoint(t *testing.T) {
	_, host, err := GenerateConsensus(smallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	prefixes := make([]netip.Prefix, 0, len(host.Prefixes))
	for p := range host.Prefixes {
		prefixes = append(prefixes, p)
	}
	for i := 0; i < len(prefixes); i++ {
		for j := i + 1; j < len(prefixes); j++ {
			if prefixes[i].Overlaps(prefixes[j]) {
				t.Fatalf("prefixes overlap: %v and %v", prefixes[i], prefixes[j])
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallGenConfig()
	c1, _, err := GenerateConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := GenerateConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Relays) != len(c2.Relays) {
		t.Fatal("nondeterministic relay count")
	}
	for i := range c1.Relays {
		if c1.Relays[i].Identity != c2.Relays[i].Identity || c1.Relays[i].Addr != c2.Relays[i].Addr {
			t.Fatalf("relay %d differs between runs", i)
		}
	}
}

func TestGenerateUniqueAddresses(t *testing.T) {
	c, _, err := GenerateConsensus(smallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[netip.Addr]bool)
	for i := range c.Relays {
		if seen[c.Relays[i].Addr] {
			t.Fatalf("duplicate address %v", c.Relays[i].Addr)
		}
		seen[c.Relays[i].Addr] = true
	}
}

func TestGenerateRoundTripsThroughFormat(t *testing.T) {
	c, _, err := GenerateConsensus(smallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Relays) != len(c.Relays) {
		t.Fatalf("relays = %d, want %d", len(got.Relays), len(c.Relays))
	}
	if len(got.Guards()) != len(c.Guards()) || len(got.Exits()) != len(c.Exits()) {
		t.Fatal("guard/exit counts changed through serialization")
	}
}

func TestGenerateValidation(t *testing.T) {
	for i, mutate := range []func(*GenConfig){
		func(c *GenConfig) { c.Both = c.Guards + 1 },
		func(c *GenConfig) { c.Total = 10 },
		func(c *GenConfig) { c.GuardExitPrefixes = 0 },
		func(c *GenConfig) { c.GuardExitPrefixes = 100000 },
		func(c *GenConfig) { c.MaxRelaysPerPrefix = 1 },
		func(c *GenConfig) { c.NumHostASes = 0 },
		func(c *GenConfig) { c.NumHostASes = len(c.HostASes) + 1 },
	} {
		cfg := smallGenConfig()
		mutate(&cfg)
		if _, _, err := GenerateConsensus(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestGeneratePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	cfg := DefaultGenConfig(hostPool(800))
	c, host, err := GenerateConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Relays) != 4586 {
		t.Fatalf("relays = %d", len(c.Relays))
	}
	guards := 0
	exits := 0
	for i := range c.Relays {
		if c.Relays[i].HasFlag(FlagGuard) {
			guards++
		}
		if c.Relays[i].HasFlag(FlagExit) {
			exits++
		}
	}
	if guards != 1918 || exits != 891 {
		t.Fatalf("guards=%d exits=%d", guards, exits)
	}
	if got := len(host.OriginASes()); got < 500 || got > 650 {
		t.Fatalf("origin ASes = %d, want ~650", got)
	}
}
