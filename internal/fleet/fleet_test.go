package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/defense"
	"quicksand/internal/monitord"
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

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestOwnerOfPartition(t *testing.T) {
	p := netip.MustParsePrefix("10.10.0.0/16")
	if OwnerOf(p, 4) != OwnerOf(p, 4) {
		t.Fatal("OwnerOf is not deterministic")
	}
	if OwnerOf(netip.MustParsePrefix("10.10.1.0/16"), 4) != OwnerOf(p, 4) {
		t.Fatal("OwnerOf must mask the prefix before hashing")
	}
	parts := Partition(fleetWatched, 3)
	if len(parts) != 3 {
		t.Fatalf("got %d partitions, want 3", len(parts))
	}
	total := 0
	for i, part := range parts {
		for q, origin := range part {
			if OwnerOf(q, 3) != i {
				t.Fatalf("prefix %v landed on shard %d, owner is %d", q, i, OwnerOf(q, 3))
			}
			if fleetWatched[q] != origin {
				t.Fatalf("prefix %v origin %d, want %d", q, origin, fleetWatched[q])
			}
			total++
		}
	}
	if total != len(fleetWatched) {
		t.Fatalf("partitions carry %d prefixes, want %d", total, len(fleetWatched))
	}
}

func TestWatchTableRoute(t *testing.T) {
	tab, err := newWatchTable(fleetWatched, 4)
	if err != nil {
		t.Fatal(err)
	}
	watched := netip.MustParsePrefix("10.20.0.0/16")
	owner := OwnerOf(watched, 4)

	if shard, ok := tab.route(watched); !ok || shard != owner {
		t.Fatalf("exact watched prefix: got (%d,%v), want (%d,true)", shard, ok, owner)
	}
	// The correctness trap: a more-specific hijack must land on the shard
	// owning the *covering* watched prefix, not hash(announced prefix).
	moreSpec := netip.MustParsePrefix("10.20.99.0/24")
	if shard, ok := tab.route(moreSpec); !ok || shard != owner {
		t.Fatalf("more-specific hijack: got (%d,%v), want (%d,true)", shard, ok, owner)
	}
	if naive := OwnerOf(moreSpec, 4); naive == owner {
		t.Logf("note: naive hash coincides with owner for this prefix; trap untested by accident")
	}
	// A covering (less-specific) announcement alerts nowhere — not routed.
	if _, ok := tab.route(netip.MustParsePrefix("10.0.0.0/8")); ok {
		t.Fatal("covering announcement must not be routed")
	}
	if _, ok := tab.route(netip.MustParsePrefix("192.168.0.0/16")); ok {
		t.Fatal("unrelated prefix must not be routed")
	}
	// Coarse bitmap: different first octet rejected without trie work.
	if _, ok := tab.route(netip.MustParsePrefix("11.10.0.0/16")); ok {
		t.Fatal("unwatched first octet must be rejected")
	}
	if shard, ok := tab.routeAddr(netip.MustParseAddr("10.20.3.4")); !ok || shard != owner {
		t.Fatalf("routeAddr: got (%d,%v), want (%d,true)", shard, ok, owner)
	}
	if _, ok := tab.routeAddr(netip.MustParseAddr("172.16.0.1")); ok {
		t.Fatal("routeAddr must reject unwatched addresses")
	}

	// Sub-/8 watched prefix spans first octets 8..11 in the coarse map.
	short, err := newWatchTable(map[netip.Prefix]bgp.ASN{
		netip.MustParsePrefix("8.0.0.0/6"): 65001,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantShard := OwnerOf(netip.MustParsePrefix("8.0.0.0/6"), 2)
	if shard, ok := short.route(netip.MustParsePrefix("11.5.0.0/16")); !ok || shard != wantShard {
		t.Fatalf("more-specific under /6: got (%d,%v), want (%d,true)", shard, ok, wantShard)
	}
	if _, ok := short.route(netip.MustParsePrefix("12.0.0.0/16")); ok {
		t.Fatal("octet 12 is outside 8.0.0.0/6")
	}

	if _, err := newWatchTable(map[netip.Prefix]bgp.ASN{
		netip.MustParsePrefix("2001:db8::/32"): 65001,
	}, 2); err == nil {
		t.Fatal("IPv6 watched prefix must be rejected")
	}
	if _, err := newWatchTable(fleetWatched, 0); err == nil {
		t.Fatal("zero shards must be rejected")
	}
}

// alertKey builds the multiset key used to compare alert streams.
func alertKey(a defense.Alert) string {
	return fmt.Sprintf("%d|%v|%v|%v", a.Session, a.Prefix, a.Kind, a.Observed)
}

func TestRouterInprocAlerts(t *testing.T) {
	r, err := New(Config{
		Watched: fleetWatched,
		Shards:  4,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())

	if r.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", r.Shards())
	}
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
	// Background churn: rejected at the router, never reaches a shard.
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
		t.Fatalf("got %d merged alerts, want 2: %+v", len(alerts), alerts)
	}
	got := map[string]bool{}
	for i, a := range alerts {
		if a.Seq != uint64(i) {
			t.Fatalf("alert %d has seq %d: merged stream must re-sequence", i, a.Seq)
		}
		got[alertKey(a.Alert)] = true
	}
	// Session ids in fleet alerts match the router's source ids — the
	// shard-registration critical section at work.
	wantHijack := fmt.Sprintf("%d|%v|%v|%v", src1, hijacked, defense.AlertOriginChange, bgp.ASN(666))
	wantMoreSpec := fmt.Sprintf("%d|%v|%v|%v", src0, moreSpec, defense.AlertMoreSpecific, bgp.ASN(667))
	if !got[wantHijack] || !got[wantMoreSpec] {
		t.Fatalf("merged alerts %v missing %q or %q", got, wantHijack, wantMoreSpec)
	}
	if next != 2 {
		t.Fatalf("next = %d, want 2", next)
	}
	if v := r.met.unwatched.Value(); v != 1 {
		t.Fatalf("unwatched counter = %v, want 1", v)
	}
	// The anomaly detectors see every merged alert, no more and no less.
	if _, observed, _ := r.Anomalies(); observed != 2 {
		t.Fatalf("detectors observed %d alerts, want the 2 merged", observed)
	}

	// Cursor paging and ahead-cursor clamp on the merged stream.
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
}

// TestMergedRingEviction overflows the router's merged alert log: the
// oldest merged alerts are evicted, reported as dropped to a client
// polling from 0, and counted in fleet_alerts_dropped_total.
func TestMergedRingEviction(t *testing.T) {
	r, err := New(Config{Watched: fleetWatched, Shards: 2, AlertBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	src := r.RegisterSource("feed", 64601)
	hijacked := netip.MustParsePrefix("10.10.0.0/16")
	for i := 0; i < 6; i++ {
		if err := r.Ingest(src, time.Unix(int64(i), 0), hijacked, []bgp.ASN{64601, bgp.ASN(666 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitQuiesce(5 * time.Second) {
		t.Fatal("quiesce timed out")
	}
	alerts, next, dropped := r.Alerts(0, 0)
	if dropped != 2 || len(alerts) != 4 || next != 6 {
		t.Fatalf("Alerts(0) = %d alerts, next %d, dropped %d; want 4, 6, 2", len(alerts), next, dropped)
	}
	if alerts[0].Seq != 2 || alerts[0].Observed != 668 {
		t.Fatalf("oldest surviving alert is seq %d origin %d, want 2/668", alerts[0].Seq, alerts[0].Observed)
	}
	if got, _, _ := r.Alerts(0, 2); len(got) != 2 {
		t.Fatalf("max=2 returned %d alerts", len(got))
	}
	if v := r.met.alertsDropped.Value(); v != 2 {
		t.Fatalf("fleet_alerts_dropped_total = %d, want 2", v)
	}
}

// TestRejectPathAllocFree pins the router's fast path as the session
// front drives it — bgpd.PrefixUpdates flattening a multi-segment AS_PATH
// into the reader's scratch, then the sink: an UPDATE matching no watched
// prefix is counted and dropped without allocating, flattening included
// (the path used to be allocated per UPDATE, one frame above the sink,
// before the router rejected it).
func TestRejectPathAllocFree(t *testing.T) {
	r, err := New(Config{Watched: fleetWatched, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	p, _ := r.srv.Peer(r.RegisterSource("feed", 64601))
	var sink bgpd.UpdateSink = routeSink{r, p}
	now := time.Now()
	u := &bgp.Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.99.0.0/16")}, // shares a first octet: reaches the trie
		NLRI:      []netip.Prefix{netip.MustParsePrefix("198.18.0.0/15")},
		Attrs: bgp.PathAttributes{HasASPath: true, ASPath: bgp.ASPath{Segments: []bgp.Segment{
			{Type: bgp.SegmentSequence, ASes: []bgp.ASN{64601, 64700}},
			{Type: bgp.SegmentSet, ASes: []bgp.ASN{64701, 64702}},
		}}},
	}
	var scratch []bgp.ASN // the session reader's, grown by AllocsPerRun's warm-up call
	if n := testing.AllocsPerRun(100, func() {
		bgpd.PrefixUpdates(u, now, sink, &scratch)
	}); n != 0 {
		t.Errorf("reject path allocates %v times per UPDATE", n)
	}
	if got := r.met.unwatched.Value(); got < 200 {
		t.Errorf("unwatched counter = %d, want every rejected update counted", got)
	}
}

// TestHealthzWatchedCounts pins the per-shard watched_prefixes rows of
// /healthz to the hash partition (the counts are computed once in New,
// not by re-partitioning the watchlist on every request).
func TestHealthzWatchedCounts(t *testing.T) {
	const n = 3
	r, err := New(Config{Watched: fleetWatched, Shards: n, ListenHTTP: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	resp, err := httpGet("http://" + r.HTTPAddr() + "/healthz")
	if err != nil || resp.status != 200 {
		t.Fatalf("/healthz: %v %+v", err, resp)
	}
	var h fleetHealthResponse
	if err := json.Unmarshal([]byte(resp.body), &h); err != nil {
		t.Fatal(err)
	}
	parts := Partition(fleetWatched, n)
	if len(h.ShardRows) != n || h.Watched != len(fleetWatched) {
		t.Fatalf("/healthz = %+v", h)
	}
	for i, row := range h.ShardRows {
		if row.Watched != len(parts[i]) {
			t.Errorf("shard %d: watched_prefixes = %d, partition holds %d", i, row.Watched, len(parts[i]))
		}
	}
}

func TestRouterBGPAndHTTP(t *testing.T) {
	r, err := New(Config{
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
	send(netip.MustParsePrefix("198.18.0.0/15"), 64601, 64700) // background, router-rejected
	if err := sess.SendUpdate(&bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("198.19.0.0/16")}}); err != nil {
		t.Fatal(err)
	}

	base := "http://" + r.HTTPAddr()
	poller := &monitord.HTTPAlerts{Base: base}
	var alerts []monitord.SeqAlert
	waitFor(t, 5*time.Second, "2 alerts over HTTP", func() bool {
		alerts, _, _ = poller.Alerts(0, 0)
		return len(alerts) >= 2
	})
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
		!strings.Contains(body, "fleet_updates_forwarded_total") ||
		!strings.Contains(body, "fleet_shards 2") ||
		!strings.Contains(body, "monitord_updates_ingested_total") {
		t.Fatalf("/metrics = %d, missing fleet or merged shard families:\n%s", code, body)
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

// TestAnomaliesEndpoint drives one prefix past the frequency detector's
// cold-start threshold (eight alerts inside one window) and pins what
// GET /anomalies then serves: the wire field names, the escalated
// anomaly, and the detectors' lifetime totals.
func TestAnomaliesEndpoint(t *testing.T) {
	r, err := New(Config{Watched: fleetWatched, Shards: 2, ListenHTTP: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	src := r.RegisterSource("feed", 64601)
	hijacked := netip.MustParsePrefix("10.10.0.0/16")
	t0 := time.Unix(1400000000, 0).UTC()
	for i := 0; i < 8; i++ {
		if err := r.Ingest(src, t0.Add(time.Duration(i)*time.Second), hijacked, []bgp.ASN{64601, 666}); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitQuiesce(5 * time.Second) {
		t.Fatal("quiesce timed out")
	}
	resp, err := httpGet("http://" + r.HTTPAddr() + "/anomalies")
	if err != nil || resp.status != 200 {
		t.Fatalf("/anomalies: %v %+v", err, resp)
	}
	var got any
	if err := json.Unmarshal([]byte(resp.body), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"anomalies": []any{map[string]any{
			"time":    t0.Add(7 * time.Second).Format(time.RFC3339),
			"prefix":  "10.10.0.0/16",
			"kind":    "frequency-burst",
			"score":   1.0,
			"alerts":  8.0,
			"origins": []any{666.0},
		}},
		"alerts_observed": 8.0,
		"escalated":       map[string]any{"frequency-burst": 1.0, "origin-flap": 0.0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/anomalies = %s\nwant %v", resp.body, want)
	}
	if v := r.met.anomalies[defense.AnomalyFrequency].Value(); v != 1 {
		t.Errorf("fleet_anomalies_total{kind=\"frequency-burst\"} = %d, want 1", v)
	}
}
