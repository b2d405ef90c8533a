package fleet_test

import (
	"bytes"
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
	"quicksand/internal/fleet"
	"quicksand/internal/monitord"
	"quicksand/internal/mrt"
	"quicksand/internal/obs"
)

var conformanceWatched = map[netip.Prefix]bgp.ASN{
	netip.MustParsePrefix("10.10.0.0/16"): 65010,
	netip.MustParsePrefix("10.20.0.0/16"): 65020,
}

// conformanceAlerts is how many alerts each service holds before the
// HTTP table runs: one more than the /alerts page ceiling, so the clamp
// is observable.
const conformanceAlerts = monitord.MaxAlertsPerRequest + 1

// bootFront starts the named front — "daemon", or "router" (the daemon
// of fleet.New, which drops unwatched updates, over two shards) — on
// loopback listeners, dialing the given collectors.
func bootFront(t *testing.T, name string, collectors ...string) *monitord.Daemon {
	t.Helper()
	speaker := bgpd.Config{ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"), AS4: true}
	cfg := monitord.Config{
		Watched: conformanceWatched, Speaker: speaker,
		ListenBGP: "127.0.0.1:0", ListenHTTP: "127.0.0.1:0", Collectors: collectors,
		AlertBuffer: 2 * conformanceAlerts,
	}
	var svc *monitord.Daemon
	var err error
	if name == "daemon" {
		svc, err = monitord.New(cfg)
	} else {
		cfg.Shards = 2
		svc, err = fleet.New(cfg)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		http.DefaultClient.CloseIdleConnections()
	})
	return svc
}

var fronts = []string{"daemon", "router"}

func bootServices(t *testing.T) map[string]*monitord.Daemon {
	t.Helper()
	services := make(map[string]*monitord.Daemon)
	hijacked := netip.MustParsePrefix("10.10.0.0/16")
	for _, name := range fronts {
		s := bootFront(t, name)
		services[name] = s
		src := s.RegisterSource("conformance", 64601)
		for i := 0; i < conformanceAlerts; i++ {
			if err := s.Ingest(src, time.Unix(1000, 0), hijacked, []bgp.ASN{64601, 666}); err != nil {
				t.Fatalf("%s: ingest %d: %v", name, i, err)
			}
		}
		if !s.WaitQuiesce(time.Minute) {
			t.Fatalf("%s did not quiesce", name)
		}
	}
	return services
}

type alertsPage struct {
	Alerts []struct {
		Seq uint64 `json:"seq"`
	} `json:"alerts"`
	Next    uint64 `json:"next"`
	Dropped uint64 `json:"dropped"`
}

// TestHTTPConformance pins the HTTP contract a daemon and a fleet must
// serve identically: read-only methods, parameter
// validation, the server-side page ceiling, and the ahead-cursor
// resync.
func TestHTTPConformance(t *testing.T) {
	cases := []struct {
		name   string
		method string
		path   string
		status int
		// check inspects a 200 /alerts page (nil: status only).
		check func(alertsPage) error
	}{
		{name: "post-alerts", method: http.MethodPost, path: "/alerts", status: 405},
		{name: "put-rib", method: http.MethodPut, path: "/rib?prefix=10.10.0.0/16", status: 405},
		{name: "delete-healthz", method: http.MethodDelete, path: "/healthz", status: 405},
		{name: "post-metrics", method: http.MethodPost, path: "/metrics", status: 405},
		{name: "ipv6-rib-prefix", method: http.MethodGet, path: "/rib?prefix=2001:db8::/32", status: 404},
		{name: "ipv6-rib-addr", method: http.MethodGet, path: "/rib?addr=2001:db8::1", status: 404},
		{name: "bad-since", method: http.MethodGet, path: "/alerts?since=x", status: 400},
		{name: "negative-since", method: http.MethodGet, path: "/alerts?since=-1", status: 400},
		{name: "bad-max", method: http.MethodGet, path: "/alerts?max=x", status: 400},
		{name: "zero-max", method: http.MethodGet, path: "/alerts?max=0", status: 400},
		{name: "default-page", method: http.MethodGet, path: "/alerts", status: 200,
			check: func(p alertsPage) error {
				if len(p.Alerts) != 1000 || p.Next != 1000 || p.Dropped != 0 {
					return fmt.Errorf("got %d alerts, next %d, dropped %d; want the default 1000-alert page",
						len(p.Alerts), p.Next, p.Dropped)
				}
				return nil
			}},
		{name: "max-clamped", method: http.MethodGet, path: "/alerts?max=1099511627776", status: 200,
			check: func(p alertsPage) error {
				if len(p.Alerts) != monitord.MaxAlertsPerRequest || p.Next != monitord.MaxAlertsPerRequest {
					return fmt.Errorf("got %d alerts, next %d; want the page clamped to %d",
						len(p.Alerts), p.Next, monitord.MaxAlertsPerRequest)
				}
				return nil
			}},
		{name: "resume", method: http.MethodGet,
			path: fmt.Sprintf("/alerts?since=%d", monitord.MaxAlertsPerRequest), status: 200,
			check: func(p alertsPage) error {
				if len(p.Alerts) != 1 || p.Alerts[0].Seq != monitord.MaxAlertsPerRequest || p.Next != conformanceAlerts {
					return fmt.Errorf("got %+v; want exactly the last alert", p)
				}
				return nil
			}},
		{name: "ahead-cursor-resync", method: http.MethodGet, path: "/alerts?since=999999999", status: 200,
			check: func(p alertsPage) error {
				if len(p.Alerts) != 0 || p.Next != conformanceAlerts || p.Dropped != 0 {
					return fmt.Errorf("got %d alerts, next %d, dropped %d; want an empty page at head %d",
						len(p.Alerts), p.Next, p.Dropped, conformanceAlerts)
				}
				return nil
			}},
	}
	for name, s := range bootServices(t) {
		base := "http://" + s.HTTPAddr()
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(""))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.status {
					t.Fatalf("%s %s = %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.status, body)
				}
				if tc.status == http.StatusMethodNotAllowed {
					if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
						t.Errorf("%s %s: Allow = %q, want GET", tc.method, tc.path, allow)
					}
				}
				if tc.check == nil {
					return
				}
				var page alertsPage
				if err := json.Unmarshal(body, &page); err != nil {
					t.Fatalf("decoding %q: %v", body, err)
				}
				if err := tc.check(page); err != nil {
					t.Errorf("%s %s: %v", tc.method, tc.path, err)
				}
			})
		}
	}
}

// ingestStream is the labelled feed of TestIngestConformance: one peer's
// view, one update per prefix (so a table dump can carry it too), each
// labelled with the alert it must raise.
var ingestStream = []struct {
	prefix string
	path   []bgp.ASN
	alert  string // "" raises nothing
}{
	{"10.10.0.0/16", []bgp.ASN{64601, 65010}, ""},            // legitimate
	{"10.20.0.0/16", []bgp.ASN{64601, 666}, "origin-change"}, // same-prefix hijack
	{"10.10.7.0/24", []bgp.ASN{64601, 667}, "more-specific"}, // more-specific hijack
	{"198.18.0.0/15", []bgp.ASN{64601, 64700}, ""},           // unwatched background
	{"10.20.0.0/16", nil, ""},                                // no AS_PATH: dropped, counted
}

// archiveTime stamps both archives: old enough that a path mistaking it
// for a receive time would observe weeks of "latency".
var archiveTime = time.Unix(1400000000, 0)

var (
	ingestPeerAS = bgp.ASN(64601)
	ingestPeerIP = netip.MustParseAddr("192.0.2.1")
)

// ingestUpdate is one ingestStream row as the UPDATE announcing it; a
// nil path leaves the AS_PATH attribute out.
func ingestUpdate(prefix string, path []bgp.ASN) *bgp.Update {
	u := &bgp.Update{
		NLRI:  []netip.Prefix{netip.MustParsePrefix(prefix)},
		Attrs: bgp.PathAttributes{HasOrigin: true, Origin: bgp.OriginIGP, NextHop: ingestPeerIP},
	}
	if path != nil {
		u.Attrs.HasASPath, u.Attrs.ASPath = true, bgp.Sequence(path...)
	}
	return u
}

// sendStream announces ingestStream over an established session.
func sendStream(t *testing.T, sess *bgpd.Session) {
	t.Helper()
	t.Cleanup(func() { sess.Close() })
	for _, u := range ingestStream {
		if err := sess.SendUpdate(ingestUpdate(u.prefix, u.path)); err != nil {
			t.Fatal(err)
		}
	}
}

// ingestArchive renders ingestStream as BGP4MP update messages or as one
// TABLE_DUMP_V2 table, stamped archiveTime.
func ingestArchive(t *testing.T, tableDump bool) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	if tableDump {
		err := w.WritePeerIndexTable(archiveTime, &mrt.PeerIndexTable{
			CollectorBGPID: netip.MustParseAddr("203.0.113.9"), ViewName: "conformance",
			Peers: []mrt.Peer{{BGPID: ingestPeerIP, IP: ingestPeerIP, AS: ingestPeerAS}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range ingestStream {
		u := ingestUpdate(row.prefix, row.path)
		var err error
		if tableDump {
			err = w.WriteRIB(archiveTime, &mrt.RIBIPv4Unicast{
				Sequence: uint32(i), Prefix: u.NLRI[0],
				Entries: []mrt.RIBEntry{{PeerIndex: 0, OriginatedTime: archiveTime, Attrs: u.Attrs}},
			})
		} else {
			var raw []byte
			if raw, err = u.Marshal(true); err == nil {
				err = w.WriteMessage(archiveTime, &mrt.BGP4MPMessage{
					PeerAS: ingestPeerAS, LocalAS: 64500, AS4: true,
					PeerIP: ingestPeerIP, LocalIP: netip.MustParseAddr("198.51.100.1"), Data: raw,
				})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return bytes.NewReader(buf.Bytes())
}

// lentRoute is one prefix of the lent-path row: where it must end up.
type lentRoute struct {
	prefix  netip.Prefix
	path    []bgp.ASN // the latest announced, which /rib must serve
	watched bool      // a more-specific of a watched prefix: alarms, and the filter passes it
}

// lentStream builds the row that catches a layer keeping a path it was
// only lent: 64 UPDATEs, each with its own prefix, path and origin (every
// other one a more-specific hijack of a watched prefix), then a
// withdrawal and a re-announcement over a different, longer path for
// half of each kind. Each phase is meant for one TCP write, so it arrives
// as one read batch and every path of the batch passes through the same
// reader scratch and the same per-shard runs, and the second phase for
// after the first has settled, so it travels in recycled storage. It returns the two phases,
// the final routes, and the alerts keyed as TestIngestConformance keys
// them — one per hijack announcement, each naming its own origin.
func lentStream() (first, second []*bgp.Update, final []lentRoute, alerts map[string]int) {
	alerts = map[string]int{}
	for i := 0; i < 64; i++ {
		r := lentRoute{watched: i%2 == 0}
		if r.watched {
			r.prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(10 + 10*(i/2%2)), byte(i), 0}), 24)
		} else {
			r.prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(i), 0}), 24)
		}
		announce := func(path []bgp.ASN) *bgp.Update {
			r.path = path
			if r.watched {
				alerts[fmt.Sprintf("0|%v|more-specific|%v", r.prefix, path[len(path)-1])]++
			}
			return ingestUpdate(r.prefix.String(), path)
		}
		first = append(first, announce([]bgp.ASN{ingestPeerAS, bgp.ASN(64700 + i), bgp.ASN(65100 + i)}))
		if i%4 < 2 {
			second = append(second,
				&bgp.Update{Withdrawn: []netip.Prefix{r.prefix}},
				announce([]bgp.ASN{ingestPeerAS, bgp.ASN(64800 + i), bgp.ASN(64900 + i), bgp.ASN(65300 + i)}))
		}
		final = append(final, r)
	}
	return first, second, final, alerts
}

// TestIngestConformance delivers one labelled stream by every input a
// front has — an inbound session, a dialed collector, a BGP4MP archive, a
// TABLE_DUMP_V2 seed — to a daemon with and without the filter: every
// cell must raise exactly the labelled alerts, count the path-less
// announcement as dropped and an archive's records on
// monitord_mrt_records_total, keep the archive's timestamps as the
// alerts' semantic time, and keep them out of the latency histograms.
// The lent-path row sends its own stream (lentStream) over an inbound
// session and also reads every prefix back from /rib.
func TestIngestConformance(t *testing.T) {
	peer := bgpd.Config{ASN: ingestPeerAS, BGPID: netip.MustParseAddr("203.0.113.9"), AS4: true}
	establish := func(t *testing.T, conn net.Conn, err error) *bgpd.Session {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := bgpd.Establish(conn, peer)
		if err != nil {
			conn.Close()
			t.Fatal(err)
		}
		return sess
	}
	fromArchive := func(tableDump bool) func(*testing.T, string) *monitord.Daemon {
		return func(t *testing.T, front string) *monitord.Daemon {
			svc := bootFront(t, front)
			if _, err := svc.IngestMRT(ingestArchive(t, tableDump), "conformance.mrt"); err != nil {
				t.Fatal(err)
			}
			return svc
		}
	}
	lentFirst, lentSecond, lentFinal, lentAlerts := lentStream()
	streamAlerts := map[string]int{}
	for _, u := range ingestStream {
		if u.alert != "" {
			streamAlerts[fmt.Sprintf("0|%s|%s|%v", u.prefix, u.alert, u.path[len(u.path)-1])]++
		}
	}
	paths := []struct {
		name    string
		archive bool // alerts carry archiveTime, not the receive time
		deliver func(t *testing.T, front string) *monitord.Daemon
		sent    int            // prefix updates the delivered stream carries
		want    map[string]int // the alerts the delivered stream must raise
		noPath  int            // announcements it carries without an AS_PATH
		records int            // MRT records it carries
		rib     []lentRoute    // what /rib must serve afterwards, when the row checks it
	}{
		{name: "inbound", deliver: func(t *testing.T, front string) *monitord.Daemon {
			svc := bootFront(t, front)
			conn, err := net.Dial("tcp", svc.BGPAddr())
			sendStream(t, establish(t, conn, err))
			return svc
		}, sent: len(ingestStream), want: streamAlerts, noPath: 1},
		{name: "collector", deliver: func(t *testing.T, front string) *monitord.Daemon {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			svc := bootFront(t, front, ln.Addr().String())
			conn, err := ln.Accept()
			sendStream(t, establish(t, conn, err))
			return svc
		}, sent: len(ingestStream), want: streamAlerts, noPath: 1},
		{name: "bgp4mp", archive: true, deliver: fromArchive(false), sent: len(ingestStream), want: streamAlerts, noPath: 1,
			records: len(ingestStream)},
		{name: "table-dump", archive: true, deliver: fromArchive(true), sent: len(ingestStream), want: streamAlerts, noPath: 1,
			records: len(ingestStream) + 1}, // and the peer index table
		{name: "lent-paths", deliver: func(t *testing.T, front string) *monitord.Daemon {
			svc := bootFront(t, front)
			conn, err := net.Dial("tcp", svc.BGPAddr())
			sess := establish(t, conn, err)
			t.Cleanup(func() { sess.Close() })
			if err := sess.SendUpdates(lentFirst); err != nil { // one write
				t.Fatal(err)
			}
			// Let the first phase settle, so the second reuses whatever
			// storage the first travelled in.
			settle(t, svc, len(lentFirst))
			if err := sess.SendUpdates(lentSecond); err != nil {
				t.Fatal(err)
			}
			return svc
		}, sent: len(lentFirst) + len(lentSecond), want: lentAlerts, rib: lentFinal},
	}

	for _, path := range paths {
		for _, front := range fronts {
			t.Run(path.name+"/"+front, func(t *testing.T) {
				svc := path.deliver(t, front)
				settle(t, svc, path.sent)
				alerts, _, _ := svc.Alerts(0, 0)
				got := map[string]int{}
				for _, a := range alerts {
					got[fmt.Sprintf("%d|%v|%v|%v", a.Session, a.Prefix, a.Kind, a.Observed)]++
					if path.archive && !a.Time.Equal(archiveTime) {
						t.Errorf("alert %+v: semantic time %v, want the archive's %v", a.Alert, a.Time, archiveTime)
					}
				}
				if !reflect.DeepEqual(got, path.want) {
					t.Errorf("alerts = %v, want %v", got, path.want)
				}

				resp, err := http.Get("http://" + svc.HTTPAddr() + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				snap, err := obs.ParseExposition(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if dropped, _ := snap.Sum("monitord_updates_dropped_total", map[string]string{"reason": "no-as-path"}); int(dropped) != path.noPath {
					t.Errorf("no-as-path drops = %v, want %d", dropped, path.noPath)
				}
				if records, _ := snap.Sum("monitord_mrt_records_total", nil); int(records) != path.records {
					t.Errorf("monitord_mrt_records_total = %v, want %d", records, path.records)
				}
				for _, family := range []string{"monitord_stage_seconds", "monitord_detection_seconds"} {
					// Quantile 1 is the upper bound of the highest occupied bucket.
					if max, err := snap.Quantile(family, 1, nil); err != nil || max > 1.001 {
						t.Errorf("%s: largest observation in the bucket up to %v s (err %v), want none above 1 s", family, max, err)
					}
				}

				for _, r := range path.rib {
					url := "http://" + svc.HTTPAddr() + "/rib?prefix=" + r.prefix.String()
					resp, err := http.Get(url)
					if err != nil {
						t.Fatal(err)
					}
					var entry struct {
						Routes []struct {
							Path []bgp.ASN `json:"path"`
						} `json:"routes"`
					}
					err = json.NewDecoder(resp.Body).Decode(&entry)
					resp.Body.Close()
					if front == "router" && !r.watched {
						// The filter dropped it; nothing may have kept it.
						if resp.StatusCode != http.StatusNotFound {
							t.Errorf("GET %s: status %d, want 404 for a prefix the filter dropped", url, resp.StatusCode)
						}
						continue
					}
					if resp.StatusCode != http.StatusOK || err != nil {
						t.Errorf("GET %s: status %d, decoding: %v", url, resp.StatusCode, err)
						continue
					}
					if len(entry.Routes) != 1 || !reflect.DeepEqual(entry.Routes[0].Path, r.path) {
						t.Errorf("/rib %v = %+v, want its own latest path %v", r.prefix, entry.Routes, r.path)
					}
				}
			})
		}
	}
}

// TestAnomaliesEndpoint drives one prefix past the frequency detector's
// cold-start threshold (eight alerts inside one window) on each front
// and pins what GET /anomalies then serves: the wire field names, the
// escalated anomaly, and the detectors' lifetime totals, which
// monitord_anomalies_total counts too.
func TestAnomaliesEndpoint(t *testing.T) {
	t0 := time.Unix(1400000000, 0).UTC()
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
	for _, front := range fronts {
		t.Run(front, func(t *testing.T) {
			svc := bootFront(t, front)
			src := svc.RegisterSource("feed", 64601)
			hijacked := netip.MustParsePrefix("10.10.0.0/16")
			for i := 0; i < 8; i++ {
				if err := svc.Ingest(src, t0.Add(time.Duration(i)*time.Second), hijacked, []bgp.ASN{64601, 666}); err != nil {
					t.Fatal(err)
				}
			}
			if !svc.WaitQuiesce(5 * time.Second) {
				t.Fatal("quiesce timed out")
			}
			base := "http://" + svc.HTTPAddr()
			resp, err := http.Get(base + "/anomalies")
			if err != nil {
				t.Fatal(err)
			}
			var got any
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("/anomalies: status %d, decoding: %v", resp.StatusCode, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("/anomalies = %v\nwant %v", got, want)
			}
			resp, err = http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			snap, err := obs.ParseExposition(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := snap.Sum("monitord_anomalies_total", map[string]string{"kind": "frequency-burst"}); v != 1 {
				t.Errorf(`monitord_anomalies_total{kind="frequency-burst"} = %v, want 1`, v)
			}
		})
	}
}

// TestCollectorRedials pins each front's collector schedule and session
// count: a collector that delivers one watched update per session and
// hangs up is redialed at the base rate, because a session that
// delivered resets the backoff (the doubling schedule would need over
// 6 s for eight sessions), and once it stops answering neither /healthz
// nor monitord_sessions_active counts any of its sessions as active.
func TestCollectorRedials(t *testing.T) {
	for _, front := range fronts {
		t.Run(front, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			established := make(chan struct{}, 64)
			go func() {
				remote := bgpd.Config{ASN: 64601, BGPID: ingestPeerIP, AS4: true}
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					s, err := bgpd.Establish(c, remote)
					if err != nil {
						c.Close()
						continue
					}
					s.SendUpdate(ingestUpdate("10.10.0.0/16", []bgp.ASN{64601, 65010}))
					s.Close()
					established <- struct{}{}
				}
			}()
			cfg := monitord.Config{
				Watched:    conformanceWatched,
				Speaker:    bgpd.Config{ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"), AS4: true},
				ListenHTTP: "127.0.0.1:0", Collectors: []string{ln.Addr().String()},
				Shards: 2, DialBackoffBase: 50 * time.Millisecond,
			}
			var svc *monitord.Daemon
			if front == "daemon" {
				svc, err = monitord.New(cfg)
			} else {
				svc, err = fleet.New(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Shutdown(context.Background())
			deadline := time.After(3 * time.Second)
			for i := 0; i < 8; i++ {
				select {
				case <-established:
				case <-deadline:
					t.Fatalf("%d collector sessions in 3 s: the backoff did not reset", i)
				}
			}
			ln.Close()
			for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
				resp, err := http.Get("http://" + svc.HTTPAddr() + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				var h struct {
					SessionsActive int `json:"sessions_active"`
				}
				err = json.NewDecoder(resp.Body).Decode(&h)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp, err = http.Get("http://" + svc.HTTPAddr() + "/metrics"); err != nil {
					t.Fatal(err)
				}
				snap, err := obs.ParseExposition(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				gauge, _ := snap.Sum("monitord_sessions_active", nil)
				if h.SessionsActive == 0 && gauge == 0 {
					break
				}
				if time.Since(start) > 5*time.Second {
					t.Fatalf("after the collector went away: /healthz sessions_active = %d, monitord_sessions_active = %v; want 0 and 0",
						h.SessionsActive, gauge)
				}
			}
		})
	}
}
