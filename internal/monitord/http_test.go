package monitord

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/defense"
)

// newHTTPDaemon starts a daemon serving HTTP on loopback with two
// ingested routes and one alert, and returns it with its base URL.
func newHTTPDaemon(t *testing.T) (*Daemon, string) {
	t.Helper()
	d := newTestDaemon(t, Config{Shards: 4, ListenHTTP: "127.0.0.1:0"})
	si := d.RegisterSource("test", 64501)
	t0 := time.Unix(1000, 0)
	d.Ingest(si, t0, watchedPrefix, asns(64501, 64500, 64496))
	d.Ingest(si, t0.Add(time.Minute), netip.MustParsePrefix("10.0.1.0/24"), asns(64501, 666))
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	return d, "http://" + d.HTTPAddr()
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, body := httpGet(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", url, body, err)
	}
}

func TestHTTPAlerts(t *testing.T) {
	_, base := newHTTPDaemon(t)

	var resp alertsResponse
	getJSON(t, base+"/alerts", &resp)
	if len(resp.Alerts) != 1 || resp.Next != 1 || resp.Dropped != 0 {
		t.Fatalf("/alerts = %+v, want exactly the more-specific alert", resp)
	}
	a := resp.Alerts[0]
	if a.Kind != "more-specific" || a.Prefix != "10.0.1.0/24" || a.ObservedAS != 666 {
		t.Errorf("alert = %+v", a)
	}

	// Cursor resume: nothing new.
	getJSON(t, base+fmt.Sprintf("/alerts?since=%d", resp.Next), &resp)
	if len(resp.Alerts) != 0 {
		t.Errorf("resumed poll returned %+v, want none", resp.Alerts)
	}

	for _, bad := range []string{"/alerts?since=x", "/alerts?max=0", "/alerts?max=x"} {
		if code, _ := httpGet(t, base+bad); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, code)
		}
	}

	// An ahead-of-head cursor (stale client after a restart) resyncs:
	// empty page, next == live head, no drops — the Daemon.Alerts
	// contract over HTTP.
	getJSON(t, base+"/alerts?since=999999", &resp)
	if len(resp.Alerts) != 0 || resp.Next != 1 || resp.Dropped != 0 {
		t.Errorf("/alerts?since=999999 = %+v, want empty resync page at head 1", resp)
	}
}

// TestHTTPAlertsMaxClamp pins that a hostile ?max= cannot force an
// O(max) allocation: the server clamps to MaxAlertsPerRequest and still
// answers 200 with whatever alerts exist.
func TestHTTPAlertsMaxClamp(t *testing.T) {
	_, base := newHTTPDaemon(t)
	var resp alertsResponse
	getJSON(t, base+fmt.Sprintf("/alerts?max=%d", 1<<40), &resp)
	if len(resp.Alerts) != 1 || resp.Next != 1 {
		t.Errorf("/alerts with huge max = %+v, want the one real alert", resp)
	}
}

// TestHTTPAlertsPollFailures pins the HTTPAlerts client's failure
// contract: a failed poll returns no alerts with the cursor held and is
// counted in Errs; an undecodable alert is skipped and counted while the
// rest of the page still advances the cursor.
func TestHTTPAlertsPollFailures(t *testing.T) {
	serving := func(t *testing.T, h http.HandlerFunc) *HTTPAlerts {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return &HTTPAlerts{Base: srv.URL}
	}
	t.Run("unreachable", func(t *testing.T) {
		src := &HTTPAlerts{Base: "http://127.0.0.1:1"}
		alerts, next, _ := src.Alerts(7, 10)
		if len(alerts) != 0 || next != 7 || src.Errs.Load() != 1 {
			t.Errorf("got %d alerts, next %d, errs %d; want cursor held at 7 with one error",
				len(alerts), next, src.Errs.Load())
		}
	})
	t.Run("http-error", func(t *testing.T) {
		src := serving(t, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "down", http.StatusServiceUnavailable)
		})
		if _, next, _ := src.Alerts(3, 0); next != 3 || src.Errs.Load() != 1 {
			t.Errorf("next=%d errs=%d after 503, want cursor held with one error", next, src.Errs.Load())
		}
	})
	t.Run("bad-json", func(t *testing.T) {
		src := serving(t, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("{not json"))
		})
		if _, next, _ := src.Alerts(3, 0); next != 3 || src.Errs.Load() != 1 {
			t.Errorf("next=%d errs=%d after bad JSON, want cursor held with one error", next, src.Errs.Load())
		}
	})
	t.Run("bad-prefix-skipped", func(t *testing.T) {
		src := serving(t, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"alerts":[
				{"seq":0,"prefix":"not-a-prefix","kind":"origin-change","observed_as":666},
				{"seq":1,"prefix":"10.0.0.0/16","kind":"more-specific","observed_as":667}
			],"next":2,"dropped":0}`))
		})
		alerts, next, _ := src.Alerts(0, 0)
		if len(alerts) != 1 || next != 2 || src.Errs.Load() != 1 {
			t.Fatalf("got %d alerts, next %d, errs %d; want the malformed alert dropped, cursor advanced",
				len(alerts), next, src.Errs.Load())
		}
		if alerts[0].Prefix != watchedPrefix || alerts[0].Observed != 667 {
			t.Errorf("surviving alert = %+v", alerts[0])
		}
	})
}

// TestParseAlertKindRoundTrip pins the /alerts wire format end to end:
// every defense.AlertKind a daemon can raise is encoded by its /alerts
// handler and decoded by HTTPAlerts back to the identical alert, and a
// kind string the decoder does not know is an error — never silently
// another kind.
func TestParseAlertKindRoundTrip(t *testing.T) {
	d := newTestDaemon(t, Config{ListenHTTP: "127.0.0.1:0", UpstreamAlarms: true})
	src := d.RegisterSource("wire", 64601)
	t0 := time.Unix(1000, 0)
	for i, u := range []struct {
		prefix netip.Prefix
		path   []bgp.ASN
	}{
		{watchedPrefix, asns(64601, 666)},                          // origin-change
		{netip.MustParsePrefix("10.0.1.0/24"), asns(64601, 667)},   // more-specific
		{watchedPrefix, asns(64601, 65001, uint32(watchedOrigin))}, // new-upstream
	} {
		if err := d.Ingest(src, t0.Add(time.Duration(i)*time.Second), u.prefix, u.path); err != nil {
			t.Fatal(err)
		}
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	want, wantNext, _ := d.Alerts(0, 0)
	poller := &HTTPAlerts{Base: "http://" + d.HTTPAddr()}
	got, next, dropped := poller.Alerts(0, 0)
	if poller.Errs.Load() != 0 || next != wantNext || dropped != 0 || len(got) != len(want) {
		t.Fatalf("decoded %d alerts (next %d, dropped %d, errs %d); daemon holds %d (next %d)",
			len(got), next, dropped, poller.Errs.Load(), len(want), wantNext)
	}
	seen := map[defense.AlertKind]bool{}
	for i := range want {
		w, g := want[i], got[i]
		if g.Seq != w.Seq || !g.Time.Equal(w.Time) || g.Session != w.Session ||
			g.Prefix != w.Prefix || g.Kind != w.Kind || g.Observed != w.Observed {
			t.Errorf("alert %d decoded as %+v, daemon raised %+v", i, g, w)
		}
		seen[g.Kind] = true
	}
	for k := defense.AlertKind(0); !strings.HasPrefix(k.String(), "AlertKind("); k++ {
		if !seen[k] {
			t.Errorf("kind %v never crossed the wire; the workload must raise every kind", k)
		}
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"alerts":[
			{"seq":0,"prefix":"10.0.0.0/16","kind":"bogus","observed_as":666},
			{"seq":1,"prefix":"10.0.0.0/16","kind":"new-upstream","observed_as":667}
		],"next":2,"dropped":0}`))
	}))
	defer srv.Close()
	poller = &HTTPAlerts{Base: srv.URL}
	got, next, _ = poller.Alerts(0, 0)
	if len(got) != 1 || next != 2 || poller.Errs.Load() != 1 {
		t.Fatalf("unknown kind: got %d alerts, next %d, errs %d; want it skipped and counted",
			len(got), next, poller.Errs.Load())
	}
	if got[0].Kind != defense.AlertNewUpstream || got[0].Observed != 667 {
		t.Errorf("surviving alert = %+v", got[0])
	}
}

// TestHTTPMethodNotAllowed pins that every handler rejects non-GET: the
// API is read-only and must say so rather than treating a POST like a
// GET.
func TestHTTPMethodNotAllowed(t *testing.T) {
	_, base := newHTTPDaemon(t)
	for _, path := range []string{"/alerts", "/rib?prefix=10.0.0.0/16", "/healthz", "/metrics"} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET" {
			t.Errorf("POST %s: Allow = %q, want GET", path, allow)
		}
	}
}

// TestWriteJSONEncodeFailure pins that an unencodable value yields a
// 500, not a silent empty 200 (the old streaming encoder had already
// written the status line before discovering the error).
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, math.NaN()) // NaN is not representable in JSON
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("writeJSON(NaN) status = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"ok": 1})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok": 1`) {
		t.Errorf("writeJSON(valid) = %d %q", rec.Code, rec.Body.String())
	}
}

func TestHTTPRIB(t *testing.T) {
	d, base := newHTTPDaemon(t)

	var resp ribResponse
	getJSON(t, base+"/rib?prefix=10.0.0.0/16", &resp)
	if resp.Prefix != "10.0.0.0/16" || len(resp.Routes) != 1 {
		t.Fatalf("/rib?prefix = %+v", resp)
	}
	want := []uint32{64501, 64500, 64496}
	if len(resp.Routes[0].Path) != 3 || resp.Routes[0].Path[2] != want[2] {
		t.Errorf("path = %v, want %v", resp.Routes[0].Path, want)
	}
	if resp.Best == nil || resp.Best.Session != resp.Routes[0].Session {
		t.Errorf("best = %+v", resp.Best)
	}

	// Address lookup takes the most specific covering prefix.
	getJSON(t, base+"/rib?addr=10.0.1.7", &resp)
	if resp.Prefix != "10.0.1.0/24" {
		t.Errorf("/rib?addr LPM = %q, want the /24", resp.Prefix)
	}

	// An announcement whose AS_PATH is present but empty is the prefix's
	// only — hence best — route, not a withdrawal.
	d.Ingest(0, time.Unix(2000, 0), netip.MustParsePrefix("192.0.2.0/24"), asns())
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	resp = ribResponse{}
	getJSON(t, base+"/rib?prefix=192.0.2.0/24", &resp)
	if len(resp.Routes) != 1 || resp.Best == nil || len(resp.Best.Path) != 0 {
		t.Errorf("empty-path route: routes = %+v, best = %+v; want it served as best", resp.Routes, resp.Best)
	}

	if code, _ := httpGet(t, base+"/rib?prefix=172.16.0.0/12"); code != http.StatusNotFound {
		t.Errorf("missing prefix: status %d, want 404", code)
	}
	for _, bad := range []string{"/rib", "/rib?prefix=nope", "/rib?addr=nope"} {
		if code, _ := httpGet(t, base+bad); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, code)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, base := newHTTPDaemon(t)
	var h healthResponse
	getJSON(t, base+"/healthz", &h)
	if h.Status != "ok" || h.Updates != 2 || h.RIBPrefixes != 2 || h.Alerts != 1 {
		t.Errorf("/healthz = %+v", h)
	}
	if h.WatchedPrefix != 1 || h.SessionsActive != 1 {
		t.Errorf("/healthz watched/sessions = %+v", h)
	}
}

func TestHTTPMetrics(t *testing.T) {
	_, base := newHTTPDaemon(t)
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"monitord_updates_ingested_total 2",
		"monitord_withdrawals_total 0",
		"monitord_rib_prefixes 2",
		`monitord_alerts_total{kind="origin-change"} 0`,
		`monitord_alerts_total{kind="more-specific"} 1`,
		`monitord_alerts_total{kind="new-upstream"} 0`,
		"monitord_alerts_dropped_total 0",
		`monitord_ingest_queue_depth{shard="0"} 0`,
		"monitord_sessions_accepted_total 1",
		"monitord_sessions_active 1",
		`monitord_session_updates_total{session="0",peer_as="64501",source="local",state="established"} 2`,
		"# TYPE monitord_updates_per_second gauge",
		"# TYPE monitord_uptime_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}
