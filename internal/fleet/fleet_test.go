package fleet_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/defense"
	"quicksand/internal/fleet"
	"quicksand/internal/monitord"
	"quicksand/internal/obs"
)

var fleetWatched = map[netip.Prefix]bgp.ASN{
	netip.MustParsePrefix("10.10.0.0/16"): 65010,
	netip.MustParsePrefix("10.20.0.0/16"): 65020,
	netip.MustParsePrefix("10.30.0.0/16"): 65030,
	netip.MustParsePrefix("10.40.0.0/16"): 65040,
}

type httpResult struct {
	status int
	body   string
}

func httpGet(url string) (httpResult, error) {
	resp, err := http.Get(url)
	if err != nil {
		return httpResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpResult{}, err
	}
	return httpResult{status: resp.StatusCode, body: string(body)}, nil
}

func httpPost(url string) (httpResult, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader("{}"))
	if err != nil {
		return httpResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpResult{}, err
	}
	return httpResult{status: resp.StatusCode, body: string(body)}, nil
}

// settle waits until svc has accounted for the first n prefix updates
// delivered to it — each ingested, rejected as unwatched or dropped — and
// its pipeline is idle. What it serves then is final, so a missing alert
// fails at once rather than at a deadline.
func settle(t *testing.T, svc *monitord.Daemon, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); accounted(t, svc) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d updates accounted for", accounted(t, svc), n)
		}
	}
	if !svc.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
}

func accounted(t *testing.T, svc *monitord.Daemon) int {
	t.Helper()
	resp, err := http.Get("http://" + svc.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n := 0.0
	for _, family := range []string{"monitord_updates_ingested_total", "monitord_updates_dropped_total",
		"fleet_updates_unwatched_total"} {
		v, _ := snap.Sum(family, nil)
		n += v
	}
	return int(n)
}

// alertKey builds the multiset key used to compare alert streams.
func alertKey(a defense.Alert) string {
	return fmt.Sprintf("%d|%v|%v|%v", a.Session, a.Prefix, a.Kind, a.Observed)
}

func TestRouterInprocAlerts(t *testing.T) {
	reg := obs.NewRegistry()
	r, err := fleet.New(fleet.Config{
		Watched:  fleetWatched,
		Shards:   4,
		Logf:     t.Logf,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())

	src0 := r.RegisterSource("feed0", 64601)
	src1 := r.RegisterSource("feed1", 64602)
	if src0 == src1 {
		t.Fatalf("sources share id %d", src0)
	}

	now := time.Now()
	// Legitimate announcements: expected origins, no alerts.
	for p, origin := range fleetWatched {
		if err := r.Ingest(src0, now, p, []bgp.ASN{64601, origin}); err != nil {
			t.Fatal(err)
		}
	}
	// Same-prefix hijack via src1, more-specific hijack via src0.
	hijacked := netip.MustParsePrefix("10.10.0.0/16")
	if err := r.Ingest(src1, now, hijacked, []bgp.ASN{64602, 666}); err != nil {
		t.Fatal(err)
	}
	moreSpec := netip.MustParsePrefix("10.20.99.0/24")
	if err := r.Ingest(src0, now, moreSpec, []bgp.ASN{64601, 667}); err != nil {
		t.Fatal(err)
	}
	// Background churn: dropped before the RIB.
	if err := r.Ingest(src0, now, netip.MustParsePrefix("198.18.0.0/15"), []bgp.ASN{64601, 1}); err != nil {
		t.Fatal(err)
	}
	if !r.WaitQuiesce(5 * time.Second) {
		t.Fatal("quiesce timed out")
	}

	alerts, next, dropped := r.Alerts(0, 0)
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	if len(alerts) != 2 {
		t.Fatalf("got %d alerts, want 2: %+v", len(alerts), alerts)
	}
	got := map[string]bool{}
	for _, a := range alerts {
		got[alertKey(a.Alert)] = true
	}
	// Session ids in the alerts are the registered sources' ids.
	wantHijack := fmt.Sprintf("%d|%v|%v|%v", src1, hijacked, defense.AlertOriginChange, bgp.ASN(666))
	wantMoreSpec := fmt.Sprintf("%d|%v|%v|%v", src0, moreSpec, defense.AlertMoreSpecific, bgp.ASN(667))
	if !got[wantHijack] || !got[wantMoreSpec] {
		t.Fatalf("alerts %v missing %q or %q", got, wantHijack, wantMoreSpec)
	}
	if next != 2 {
		t.Fatalf("next = %d, want 2", next)
	}
	if v := reg.Counter("fleet_updates_unwatched_total", "").Value(); v != 1 {
		t.Fatalf("unwatched counter = %v, want 1", v)
	}
	// The anomaly detectors see every alert, no more and no less.
	if _, observed, _ := r.Anomalies(); observed != 2 {
		t.Fatalf("detectors observed %d alerts, want the 2 raised", observed)
	}
	// The background announcement never reached the RIB.
	if n := r.RIB().Size(); n != len(fleetWatched)+1 {
		t.Fatalf("RIB holds %d prefixes, want the %d watched and the more-specific", n, len(fleetWatched)+1)
	}

	// Cursor paging and ahead-cursor clamp.
	page, next2, _ := r.Alerts(next, 10)
	if len(page) != 0 || next2 != next {
		t.Fatalf("caught-up poll returned %d alerts, next %d", len(page), next2)
	}
	if _, aheadNext, aheadDropped := r.Alerts(9999, 0); aheadNext != next || aheadDropped != 0 {
		t.Fatalf("ahead cursor: next %d dropped %d, want %d and 0", aheadNext, aheadDropped, next)
	}

	if err := r.Ingest(99, now, hijacked, []bgp.ASN{64601, 666}); err == nil {
		t.Fatal("unknown session must be rejected")
	}
	if _, err := fleet.New(fleet.Config{Watched: map[netip.Prefix]bgp.ASN{netip.MustParsePrefix("2001:db8::/32"): 65001}}); err == nil {
		t.Fatal("IPv6 watched prefix must be rejected")
	}
}

func TestRouterBGPAndHTTP(t *testing.T) {
	r, err := fleet.New(fleet.Config{
		Watched: fleetWatched,
		Shards:  2,
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
		},
		ListenBGP:  "127.0.0.1:0",
		ListenHTTP: "127.0.0.1:0",
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())

	conn, err := net.Dial("tcp", r.BGPAddr())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN: 64601, BGPID: netip.MustParseAddr("203.0.113.9"),
	})
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	defer sess.Close()

	watched := netip.MustParsePrefix("10.10.0.0/16")
	send := func(p netip.Prefix, path ...bgp.ASN) {
		t.Helper()
		u := &bgp.Update{
			NLRI: []netip.Prefix{p},
			Attrs: bgp.PathAttributes{
				HasOrigin: true, Origin: bgp.OriginIGP,
				HasASPath: true, ASPath: bgp.Sequence(path...),
				NextHop: netip.AddrFrom4([4]byte{203, 0, 113, 1}),
			},
		}
		if err := sess.SendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	send(watched, 64601, 65010)                                // legit
	send(watched, 64601, 666)                                  // same-prefix hijack
	send(netip.MustParsePrefix("10.40.7.0/24"), 64601, 667)    // more-specific hijack
	send(netip.MustParsePrefix("198.18.0.0/15"), 64601, 64700) // background, dropped unwatched
	if err := sess.SendUpdate(&bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("198.19.0.0/16")}}); err != nil {
		t.Fatal(err)
	}

	base := "http://" + r.HTTPAddr()
	poller := &monitord.HTTPAlerts{Base: base}
	settle(t, r, 5)
	alerts, _, _ := poller.Alerts(0, 0)
	kinds := map[defense.AlertKind]int{}
	for _, a := range alerts {
		kinds[a.Kind]++
	}
	if kinds[defense.AlertOriginChange] != 1 || kinds[defense.AlertMoreSpecific] != 1 {
		t.Fatalf("alert kinds = %v", kinds)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := httpGet(base + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp.status, resp.body
	}
	if code, body := get("/healthz"); code != 200 ||
		!strings.Contains(body, `"shards": 2`) || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, `fleet_updates_forwarded_total{shard="1"}`) ||
		!strings.Contains(body, "fleet_updates_unwatched_total 2") ||
		!strings.Contains(body, "monitord_updates_ingested_total 3") {
		t.Fatalf("/metrics = %d, missing fleet or daemon families:\n%s", code, body)
	}
	if code, body := get("/rib?prefix=10.10.0.0/16"); code != 200 || !strings.Contains(body, `"routes"`) {
		t.Fatalf("/rib = %d %q", code, body)
	}
	if code, _ := get("/rib?prefix=192.168.0.0/16"); code != 404 {
		t.Fatalf("/rib unwatched = %d, want 404", code)
	}
	if code, _ := get("/rib?addr=10.10.1.1"); code != 200 {
		t.Fatalf("/rib?addr = %d, want 200", code)
	}
	if code, _ := get("/alerts?since=bogus"); code != 400 {
		t.Fatalf("/alerts bad cursor = %d, want 400", code)
	}
	if code, _ := get("/alerts?max=1099511627776"); code != 200 {
		t.Fatalf("/alerts huge max = %d, want 200 (clamped)", code)
	}
	if code, body := get("/anomalies"); code != 200 || !strings.Contains(body, `"escalated"`) {
		t.Fatalf("/anomalies = %d %q", code, body)
	}
	// Read-only API: mutating methods are 405 on every endpoint.
	for _, path := range []string{"/alerts", "/anomalies", "/healthz", "/metrics", "/rib?prefix=10.10.0.0/16"} {
		resp, err := httpPost(base + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.status != 405 {
			t.Fatalf("POST %s = %d, want 405", path, resp.status)
		}
	}
}
