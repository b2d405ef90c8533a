package monitord

import (
	"context"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
)

// TestServeEndToEnd is the acceptance test for the daemon: a second
// process-local BGP speaker dials the daemon's loopback listener and
// replays an interception scenario (benign table, then a same-prefix
// origin hijack and a more-specific hijack embedded in background
// churn); the daemon must surface the alerts over GET /alerts and the
// matching counters over GET /metrics, and a graceful shutdown must
// leak zero goroutines.
func TestServeEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()

	d, err := New(Config{
		Watched: map[netip.Prefix]bgp.ASN{watchedPrefix: watchedOrigin},
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		ListenBGP:  "127.0.0.1:0",
		ListenHTTP: "127.0.0.1:0",
		Shards:     4,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// The interception scenario, as a simulated collector-session view:
	// the benign initial table carries the victim's real path, then the
	// update stream announces the attacker as origin (interception) and a
	// more-specific of the watched prefix, with an unrelated background
	// update mixed in.
	other := netip.MustParsePrefix("192.0.2.0/24")
	moreSpec := netip.MustParsePrefix("10.0.2.0/24")
	t0 := time.Unix(3000, 0)
	st := &bgpsim.Stream{
		Sessions: []bgpsim.Session{
			bgpsim.NewSession("rrc00", 64501, []netip.Prefix{watchedPrefix, other}),
		},
		Initial: map[int]map[netip.Prefix][]bgp.ASN{0: {
			watchedPrefix: asns(64501, 64500, 64496),
			other:         asns(64501, 64510),
		}},
		Updates: []bgpsim.UpdateEvent{
			{Time: t0, Session: 0, Prefix: watchedPrefix, Path: asns(64501, 666)},
			{Time: t0.Add(time.Minute), Session: 0, Prefix: other, Path: asns(64501, 64511, 64510)},
			{Time: t0.Add(2 * time.Minute), Session: 0, Prefix: moreSpec, Path: asns(64501, 666, 64496)},
		},
	}
	const wantUpdates = 5 // 2 initial + 3 stream

	// Second speaker: dial the daemon and replay the scenario.
	conn, err := net.Dial("tcp", d.BGPAddr())
	if err != nil {
		t.Fatalf("dial daemon: %v", err)
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN: 64501, BGPID: netip.MustParseAddr("203.0.113.1"),
		HoldTime: 3 * time.Second,
	})
	if err != nil {
		conn.Close()
		t.Fatalf("establish: %v", err)
	}
	if _, err := bgpd.Replay(sess, st, 0); err != nil {
		t.Fatalf("replay: %v", err)
	}

	// Wait until every replayed update made it through the pipeline.
	deadline := time.Now().Add(10 * time.Second)
	for d.met.updates.Value() < wantUpdates {
		if time.Now().After(deadline) {
			t.Fatalf("daemon ingested %d/%d updates", d.met.updates.Value(), wantUpdates)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}

	base := "http://" + d.HTTPAddr()

	// The interception surfaces on /alerts. The two hijacked prefixes
	// hash to different shards, so only the set of alerts is defined,
	// not their sequence order.
	var alerts alertsResponse
	getJSON(t, base+"/alerts", &alerts)
	if len(alerts.Alerts) != 2 {
		t.Fatalf("/alerts = %+v, want origin-change + more-specific", alerts)
	}
	byKind := make(map[string]alertJSON)
	for _, a := range alerts.Alerts {
		byKind[a.Kind] = a
	}
	if a, ok := byKind[defense.AlertOriginChange.String()]; !ok ||
		a.Prefix != watchedPrefix.String() || a.ObservedAS != 666 {
		t.Errorf("origin-change alert = %+v, want on %v by AS666", a, watchedPrefix)
	}
	if a, ok := byKind[defense.AlertMoreSpecific.String()]; !ok || a.Prefix != moreSpec.String() {
		t.Errorf("more-specific alert = %+v, want %v", a, moreSpec)
	}

	// The hijacked path is live in the RIB.
	var rib ribResponse
	getJSON(t, base+"/rib?prefix="+watchedPrefix.String(), &rib)
	if len(rib.Routes) != 1 || rib.Routes[0].Path[len(rib.Routes[0].Path)-1] != 666 {
		t.Errorf("/rib = %+v, want the interception path ending in 666", rib)
	}

	// And /metrics reflects the session and the counts.
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"monitord_updates_ingested_total 5",
		`monitord_alerts_total{kind="origin-change"} 1`,
		`monitord_alerts_total{kind="more-specific"} 1`,
		"monitord_sessions_accepted_total 1",
		"monitord_sessions_active 1",
		`monitord_session_updates_total{session="0",peer_as="64501",source="bgp",state="established"} 5`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	// Graceful shutdown: the client closes, the daemon drains, and no
	// goroutine survives.
	sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()

	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(leakDeadline) {
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCollectorReconnect exercises the outbound dial loop: the daemon
// dials a loopback "collector" that replays a hijack, drops the session,
// and accepts a reconnect — the backoff path — before shutdown.
func TestCollectorReconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// The fake collector accepts two sessions; the first replays one
	// hijacked announcement and closes, the second stays up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	collectorCfg := bgpd.Config{
		ASN: 64501, BGPID: netip.MustParseAddr("203.0.113.1"),
		HoldTime: 3 * time.Second,
	}
	accepted := make(chan *bgpd.Session, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := bgpd.Establish(c, collectorCfg)
			if err != nil {
				c.Close()
				continue
			}
			if i == 0 {
				s.SendUpdate(&bgp.Update{
					NLRI: []netip.Prefix{watchedPrefix},
					Attrs: bgp.PathAttributes{
						HasOrigin: true, Origin: bgp.OriginIGP,
						HasASPath: true, ASPath: bgp.Sequence(64501, 666),
						NextHop: netip.MustParseAddr("203.0.113.1"),
					},
				})
				s.Close()
				continue
			}
			accepted <- s
		}
	}()

	d, err := New(Config{
		Watched: map[netip.Prefix]bgp.ASN{watchedPrefix: watchedOrigin},
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		Collectors:      []string{ln.Addr().String()},
		Shards:          2,
		DialBackoffBase: 10 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// The hijack from the first (short-lived) session must be detected,
	// and the dialer must have reconnected.
	deadline := time.Now().Add(10 * time.Second)
	var second *bgpd.Session
	for second == nil {
		select {
		case second = <-accepted:
		default:
			if time.Now().After(deadline) {
				t.Fatal("daemon never reconnected to the collector")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for d.rng.Total() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("hijack from first collector session never alerted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	alerts, _, _ := d.Alerts(0, 0)
	if alerts[0].Kind != defense.AlertOriginChange || alerts[0].Observed != 666 {
		t.Errorf("alert = %+v, want origin-change by AS666", alerts[0].Alert)
	}
	if got := d.met.sessionsAccepted.Value(); got != 2 {
		t.Errorf("sessions accepted = %d, want 2 (initial + reconnect)", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ln.Close()
	second.Close()

	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(leakDeadline) {
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
