package loadgen

import (
	"bytes"
	"context"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/monitord"
)

func monitordSpeaker() bgpd.Config {
	return bgpd.Config{ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"), AS4: true}
}

var watched = netip.MustParsePrefix("10.99.0.0/16")

// newDaemon starts one in-process monitord instance watching `watched`.
func newDaemon(t *testing.T) *monitord.Daemon {
	t.Helper()
	d, err := monitord.New(monitord.Config{
		Watched:    map[netip.Prefix]bgp.ASN{watched: 64496},
		Speaker:    monitordSpeaker(),
		ListenBGP:  "127.0.0.1:0",
		ListenHTTP: "127.0.0.1:0",
		Shards:     4,
		ReadBatch:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return d
}

func baseConfig(targets ...Target) Config {
	return Config{
		Targets:        targets,
		Sessions:       2,
		Duration:       300 * time.Millisecond,
		TracerInterval: 20 * time.Millisecond,
		Settle:         5 * time.Second,
		Seed:           1,
		WatchedPrefix:  watched,
		BurstSize:      64,
	}
}

// TestRunFleetInProcess is the end-to-end harness test: two daemons,
// two load sessions each, tracers on both, every tracer detected with a
// positive latency and ordered percentiles.
func TestRunFleetInProcess(t *testing.T) {
	d1, d2 := newDaemon(t), newDaemon(t)
	cfg := baseConfig(
		Target{Name: "a", BGPAddr: d1.BGPAddr(), Alerts: d1},
		Target{Name: "b", BGPAddr: d2.BGPAddr(), Alerts: d2},
	)
	cfg.Rate = 5000 // per session; keep the 1-CPU CI box responsive
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdatesSent == 0 || res.UpdatesPerSec <= 0 {
		t.Errorf("no load delivered: sent=%d rate=%v", res.UpdatesSent, res.UpdatesPerSec)
	}
	if res.TracersInjected < 2 {
		t.Errorf("tracers injected = %d, want >= 2", res.TracersInjected)
	}
	if res.TracersLost != 0 || res.TracersDetected != res.TracersInjected {
		t.Errorf("lost %d of %d tracers at trivial load", res.TracersLost, res.TracersInjected)
	}
	if !(res.P50 > 0 && res.P50 <= res.P95 && res.P95 <= res.P99) {
		t.Errorf("percentiles not ordered/positive: p50=%v p95=%v p99=%v", res.P50, res.P95, res.P99)
	}
	if len(res.Targets) != 2 {
		t.Fatalf("got %d target results, want 2", len(res.Targets))
	}
	for _, tr := range res.Targets {
		if tr.UpdatesSent == 0 || tr.TracersDetected != tr.TracersInjected {
			t.Errorf("target %s: sent=%d detected=%d/%d",
				tr.Name, tr.UpdatesSent, tr.TracersDetected, tr.TracersInjected)
		}
		for _, l := range tr.Latencies {
			if l <= 0 {
				t.Errorf("target %s: non-positive latency %v", tr.Name, l)
			}
		}
	}
}

// TestRunOverHTTPAlerts runs the same harness polling alerts through
// the real /alerts HTTP API instead of the in-process ring.
func TestRunOverHTTPAlerts(t *testing.T) {
	d := newDaemon(t)
	src := &HTTPAlerts{Base: "http://" + d.HTTPAddr()}
	cfg := baseConfig(Target{BGPAddr: d.BGPAddr(), Alerts: src})
	cfg.Sessions = 1
	cfg.Rate = 2000
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TracersDetected == 0 || res.TracersDetected != res.TracersInjected {
		t.Errorf("HTTP alert source: detected %d/%d", res.TracersDetected, res.TracersInjected)
	}
	if n := src.Errs.Load(); n != 0 {
		t.Errorf("HTTP alert source recorded %d poll errors against a healthy daemon", n)
	}
	if res.Targets[0].Name != d.BGPAddr() {
		t.Errorf("unnamed target not defaulted to BGP address: %q", res.Targets[0].Name)
	}
}

// TestTracerOriginsAbove16Bits is the regression test for the AS_TRANS
// collapse: tracer origins that cross 65535 must each surface with their
// own 4-octet origin, and a target that will not negotiate 4-octet AS
// numbers must fail the run up front instead of losing tracers quietly.
func TestTracerOriginsAbove16Bits(t *testing.T) {
	d := newDaemon(t)
	cfg := baseConfig(Target{BGPAddr: d.BGPAddr(), Alerts: d})
	cfg.Sessions = 1
	cfg.Rate = 2000
	cfg.TracerInterval = 10 * time.Millisecond
	cfg.TracerBase = 65530
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TracersInjected < 10 || res.TracersLost != 0 {
		t.Fatalf("injected %d tracers, lost %d; want >= 10 and none lost", res.TracersInjected, res.TracersLost)
	}
	alerts, _, _ := d.Alerts(0, 0)
	origins := map[bgp.ASN]bool{}
	for _, a := range alerts {
		origins[a.Observed] = true
	}
	for i := 0; i < res.TracersInjected; i++ {
		if asn := cfg.TracerBase + bgp.ASN(i); !origins[asn] {
			t.Errorf("tracer %d: no alert with origin AS%d (AS_TRANS seen: %v)", i, uint32(asn), origins[23456])
		}
	}

	twoOctet, err := monitord.New(monitord.Config{
		Watched:   map[netip.Prefix]bgp.ASN{watched: 64496},
		Speaker:   bgpd.Config{ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1")},
		ListenBGP: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer twoOctet.Shutdown(context.Background())
	_, err = Run(context.Background(), baseConfig(Target{BGPAddr: twoOctet.BGPAddr(), Alerts: twoOctet}))
	if err == nil || !strings.Contains(err.Error(), "4-octet") {
		t.Errorf("run against a 2-octet target: err = %v, want a 4-octet negotiation failure", err)
	}
}

// TestTracerPrefixesRoundRobin spreads tracers across several watched
// prefixes: every injection must still be detected (a tracer sent to a
// prefix the poller ignored would be counted lost), and the alert
// stream must show hijacks on more than one prefix.
func TestTracerPrefixesRoundRobin(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.97.0.0/16"),
		netip.MustParsePrefix("10.98.0.0/16"),
		netip.MustParsePrefix("10.99.0.0/16"),
	}
	watchedMap := make(map[netip.Prefix]bgp.ASN, len(prefixes))
	for i, p := range prefixes {
		watchedMap[p] = bgp.ASN(64496 + i)
	}
	d, err := monitord.New(monitord.Config{
		Watched:   watchedMap,
		Speaker:   monitordSpeaker(),
		ListenBGP: "127.0.0.1:0",
		Shards:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	cfg := baseConfig(Target{BGPAddr: d.BGPAddr(), Alerts: d})
	cfg.Sessions = 1
	cfg.Rate = 2000
	cfg.TracerInterval = 10 * time.Millisecond
	cfg.WatchedPrefix = netip.Prefix{} // TracerPrefixes replaces it
	cfg.TracerPrefixes = prefixes
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TracersInjected < len(prefixes) {
		t.Fatalf("only %d tracers injected, want >= %d for full rotation", res.TracersInjected, len(prefixes))
	}
	if res.TracersLost != 0 {
		t.Errorf("lost %d of %d tracers across rotated prefixes", res.TracersLost, res.TracersInjected)
	}
	alerts, _, _ := d.Alerts(0, 0)
	seen := map[netip.Prefix]bool{}
	for _, a := range alerts {
		seen[a.Prefix] = true
	}
	if len(seen) < 2 {
		t.Errorf("alerts cover %d prefixes, want >= 2 from round-robin", len(seen))
	}
}

func TestConfigValidation(t *testing.T) {
	valid := func() Config {
		return Config{
			Targets:       []Target{{BGPAddr: "127.0.0.1:179", Alerts: &HTTPAlerts{}}},
			Duration:      time.Second,
			WatchedPrefix: watched,
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no-targets", func(c *Config) { c.Targets = nil }, "no targets"},
		{"no-bgp-addr", func(c *Config) { c.Targets[0].BGPAddr = "" }, "no BGP address"},
		{"no-alert-source", func(c *Config) { c.Targets[0].Alerts = nil }, "no alert source"},
		{"no-duration", func(c *Config) { c.Duration = 0 }, "Duration"},
		{"no-watched", func(c *Config) { c.WatchedPrefix = netip.Prefix{} }, "WatchedPrefix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mutate(&cfg)
			if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestRunUnreachableTarget(t *testing.T) {
	cfg := baseConfig(Target{BGPAddr: "127.0.0.1:1", Alerts: &HTTPAlerts{}})
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("run against an unreachable target succeeded")
	}
}

// TestRateLimitBounds checks the pacing actually caps throughput: at
// Rate R for duration D a session may send at most R*D plus one burst
// of slack (the whole burst is committed before the pacer sleeps).
func TestRateLimitBounds(t *testing.T) {
	d := newDaemon(t)
	cfg := baseConfig(Target{BGPAddr: d.BGPAddr(), Alerts: d})
	cfg.Sessions = 1
	cfg.BurstSize = 32
	cfg.Rate = 1000
	cfg.Duration = 400 * time.Millisecond
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxSent := uint64(cfg.Rate*cfg.Duration.Seconds()) + uint64(cfg.BurstSize)
	if res.UpdatesSent == 0 || res.UpdatesSent > maxSent {
		t.Errorf("sent %d updates at rate %v over %v, want (0, %d]",
			res.UpdatesSent, cfg.Rate, cfg.Duration, maxSent)
	}
}

func TestRunCancelled(t *testing.T) {
	d := newDaemon(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := baseConfig(Target{BGPAddr: d.BGPAddr(), Alerts: d})
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

func TestEncodeBurstDeterministicAndDisjoint(t *testing.T) {
	a, n, err := encodeBurst(rand.New(rand.NewSource(7)), 128, 64601, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := encodeBurst(rand.New(rand.NewSource(7)), 128, 64601, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 128 || !bytes.Equal(a, b) {
		t.Errorf("burst not deterministic: n=%d, equal=%v", n, bytes.Equal(a, b))
	}
	c, _, err := encodeBurst(rand.New(rand.NewSource(8)), 128, 64601, true)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical bursts")
	}
	bench := netip.MustParsePrefix("198.18.0.0/15")
	if bench.Overlaps(watched) {
		t.Fatal("benchmark range overlaps the watched prefix")
	}
}
