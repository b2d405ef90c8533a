package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/fleet"
	"quicksand/internal/monitord"
)

// service is the surface a single daemon and a fleet router share; the
// conformance table below drives both through it.
type service interface {
	RegisterSource(name string, peer bgp.ASN) int
	Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error
	WaitQuiesce(timeout time.Duration) bool
	HTTPAddr() string
	Shutdown(ctx context.Context) error
}

var conformanceWatched = map[netip.Prefix]bgp.ASN{
	netip.MustParsePrefix("10.10.0.0/16"): 65010,
	netip.MustParsePrefix("10.20.0.0/16"): 65020,
}

// conformanceAlerts is how many alerts each service holds before the
// table runs: one more than the /alerts page ceiling, so the clamp is
// observable.
const conformanceAlerts = monitord.MaxAlertsPerRequest + 1

func bootServices(t *testing.T) map[string]service {
	t.Helper()
	d, err := monitord.New(monitord.Config{
		Watched:     conformanceWatched,
		ListenHTTP:  "127.0.0.1:0",
		AlertBuffer: 2 * conformanceAlerts,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := fleet.New(fleet.Config{
		Watched:     conformanceWatched,
		Shards:      2,
		ShardConfig: monitord.Config{AlertBuffer: 2 * conformanceAlerts},
		AlertBuffer: 2 * conformanceAlerts,
		ListenHTTP:  "127.0.0.1:0",
	})
	if err != nil {
		d.Shutdown(context.Background())
		t.Fatal(err)
	}
	services := map[string]service{"daemon": d, "router": r}
	t.Cleanup(func() {
		for _, s := range services {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.Shutdown(ctx)
			cancel()
		}
		http.DefaultClient.CloseIdleConnections()
	})
	hijacked := netip.MustParsePrefix("10.10.0.0/16")
	for name, s := range services {
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

// TestHTTPConformance pins the HTTP contract a single daemon and a
// fleet router must serve identically: read-only methods, parameter
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
