package testkit

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quicksand/internal/obs"
)

// expositionServer serves body at /metrics with the given status.
func expositionServer(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestLintPromURL(t *testing.T) {
	srv := expositionServer(t, http.StatusOK, cleanExposition)
	if errs := LintPromURL(srv.URL); len(errs) != 0 {
		t.Fatalf("clean exposition over HTTP fails lint: %v", errs)
	}
}

func TestLintPromURLMalformed(t *testing.T) {
	srv := expositionServer(t, http.StatusOK, "demo_updates_total 42\n")
	errs := LintPromURL(srv.URL)
	if len(errs) == 0 {
		t.Fatal("exposition with no HELP/TYPE passed the linter")
	}
}

func TestLintPromURLErrors(t *testing.T) {
	if errs := LintPromURL("http://127.0.0.1:1/metrics"); len(errs) != 1 {
		t.Fatalf("unreachable target: got %v, want one scrape error", errs)
	}
	srv := expositionServer(t, http.StatusInternalServerError, "boom")
	if errs := LintPromURL(srv.URL); len(errs) != 1 || !strings.Contains(errs[0].Error(), "status 500") {
		t.Fatalf("500 target: got %v, want one status error", errs)
	}
}

// TestLintPromURLAggregated pins the fleet-aggregation contract: the
// exposition produced by scraping several obs registries and merging
// the snapshots must itself be lint-clean, i.e. the aggregator's output
// is a valid scrape target in its own right.
func TestLintPromURLAggregated(t *testing.T) {
	var snaps []*obs.Snapshot
	for i := 0; i < 3; i++ {
		reg := obs.NewRegistry()
		reg.Counter("fleet_updates_total", "Updates ingested.").Add(uint64(100 * (i + 1)))
		reg.GaugeVec("fleet_depth", "Queue depth per shard.", "shard").With("0").Set(float64(i))
		h := reg.HistogramVec("fleet_latency_seconds", "Latency.", obs.ExpBuckets(0.001, 10, 4), "stage")
		for j := 0; j <= i; j++ {
			h.With("read").Observe(0.005)
			h.With("apply").Observe(0.5)
		}
		srv := httptest.NewServer(obs.Handler(reg, false))
		t.Cleanup(srv.Close)
		sn, err := obs.ScrapeTarget(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, sn)
	}

	merged, err := obs.MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := merged.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	agg := expositionServer(t, http.StatusOK, buf.String())
	if errs := LintPromURL(agg.URL); len(errs) != 0 {
		t.Fatalf("aggregated exposition fails lint:\n%v\n\n%s", errs, buf.String())
	}

	// The merge must also have summed across instances: 100+200+300.
	served, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, n := served.Sum("fleet_updates_total", nil); n != 1 || v != 600 {
		t.Fatalf("merged counter = %v over %d samples, want 600 over 1", v, n)
	}
}
