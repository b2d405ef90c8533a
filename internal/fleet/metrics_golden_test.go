package fleet_test

import (
	"context"
	"io"
	"net/http"
	"net/netip"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/fleet"
	"quicksand/internal/testkit"
)

// TestFleetMetricsGolden pins the fleet's /metrics exposition — the
// fleet_* families and the daemon's monitord_* families on one registry
// — against a golden file, like monitord's TestMetricsGolden.
// Latency observations are off (bucket placement depends on elapsed
// time) and the time-dependent gauges are normalised to X; everything
// else is exact, so a diff here means a fleet dashboard breaks.
func TestFleetMetricsGolden(t *testing.T) {
	r, err := fleet.New(fleet.Config{
		Watched: map[netip.Prefix]bgp.ASN{
			netip.MustParsePrefix("10.10.0.0/16"): 65010,
			netip.MustParsePrefix("10.15.0.0/16"): 65015,
			netip.MustParsePrefix("10.20.0.0/16"): 65020,
			netip.MustParsePrefix("10.25.0.0/16"): 65025,
		},
		Shards:                2,
		DisableLatencyMetrics: true,
		ListenHTTP:            "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	})
	src := r.RegisterSource("test", 64601)
	t0 := time.Unix(1000, 0)
	for _, u := range []struct {
		prefix string
		path   []bgp.ASN
	}{
		{"10.10.0.0/16", []bgp.ASN{64601, 65010}},  // legitimate
		{"10.10.0.0/16", []bgp.ASN{64601, 666}},    // same-prefix hijack
		{"10.25.7.0/24", []bgp.ASN{64601, 667}},    // more-specific hijack
		{"198.18.0.0/15", []bgp.ASN{64601, 64700}}, // unwatched: rejected at the router
		{"10.20.0.0/16", nil},                      // withdrawal
		{"2001:db8::/32", []bgp.ASN{64601, 64700}}, // non-IPv4: dropped, counted
	} {
		if err := r.Ingest(src, t0, netip.MustParsePrefix(u.prefix), u.path); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitQuiesce(5 * time.Second) {
		t.Fatal("fleet did not quiesce")
	}
	resp, err := http.Get("http://" + r.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if errs := testkit.LintProm(string(body)); len(errs) != 0 {
		t.Fatalf("fleet /metrics fails lint:\n%v\n\n%s", errs, body)
	}
	var b strings.Builder
	for _, line := range strings.Split(string(body), "\n") {
		for _, dyn := range []string{"fleet_uptime_seconds ", "monitord_uptime_seconds ", "monitord_updates_per_second "} {
			if strings.HasPrefix(line, dyn) {
				line = dyn + "X"
			}
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	got := strings.TrimSuffix(b.String(), "\n")
	testkit.Golden(t, filepath.Join("..", "..", "results", "golden", "fleet_metrics.txt"), []byte(got))
}
