package monitord_test

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
	"quicksand/internal/monitord"
	"quicksand/internal/testkit"
)

// scrapeMetrics starts a daemon through the exported API only (this is
// an external test package), ingests a deterministic workload, and
// returns the /metrics exposition.
func scrapeMetrics(t *testing.T) string {
	t.Helper()
	d, err := monitord.New(monitord.Config{
		Watched: map[netip.Prefix]bgp.ASN{
			netip.MustParsePrefix("10.0.0.0/16"): 64496,
		},
		Shards:     4,
		ListenHTTP: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	si := d.RegisterSource("test", 64501)
	t0 := time.Unix(1000, 0)
	d.Ingest(si, t0, netip.MustParsePrefix("10.0.0.0/16"), []bgp.ASN{64501, 64500, 64496})
	d.Ingest(si, t0.Add(time.Minute), netip.MustParsePrefix("10.0.1.0/24"), []bgp.ASN{64501, 666})
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	resp, err := http.Get("http://" + d.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsLint runs the shared exposition linter against a live
// daemon's /metrics output.
func TestMetricsLint(t *testing.T) {
	text := scrapeMetrics(t)
	if errs := testkit.LintProm(text); len(errs) != 0 {
		t.Fatalf("monitord /metrics fails lint:\n%v\n\n%s", errs, text)
	}
}

// TestMetricsGolden pins the full exposition — family set, metric and
// label names, label order, sample formatting — against a golden file.
// Time-dependent sample values are normalised to X: the rate gauges, and
// the latency histograms' buckets and sums (placement depends on real
// elapsed time), whose counts stay pinned; latency_test.go asserts the
// populated values. Everything else is exact. The metric names and label
// sets are monitord's stable external interface: a diff here means
// dashboards break.
func TestMetricsGolden(t *testing.T) {
	text := scrapeMetrics(t)
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		for _, dyn := range []string{"monitord_uptime_seconds ", "monitord_updates_per_second ",
			"monitord_detection_seconds_bucket{", "monitord_detection_seconds_sum ",
			"monitord_stage_seconds_bucket{", "monitord_stage_seconds_sum{"} {
			if strings.HasPrefix(line, dyn) {
				line = line[:strings.LastIndexByte(line, ' ')] + " X"
			}
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	got := strings.TrimSuffix(b.String(), "\n")
	testkit.Golden(t, filepath.Join("..", "..", "results", "golden", "monitord_metrics.txt"), []byte(got))
}
