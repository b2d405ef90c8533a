package testkit

import (
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

// TestLintPromURLAggregated pins that one registry carrying several
// subsystems' families, as serve's carries monitord_*, fleet_* and
// bgpd_*, is a clean scrape target with its values intact.
func TestLintPromURLAggregated(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("fleet_updates_total", "Updates ingested.").Add(600)
	reg.GaugeVec("monitord_depth", "Queue depth per shard.", "shard").With("0").Set(2)
	h := reg.HistogramVec("monitord_latency_seconds", "Latency.", obs.ExpBuckets(0.001, 10, 4), "stage")
	h.With("read").Observe(0.005)
	h.With("apply").Observe(0.5)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		reg.WritePrometheus(w)
	}))
	t.Cleanup(srv.Close)
	if errs := LintPromURL(srv.URL + "/metrics"); len(errs) != 0 {
		t.Fatalf("aggregated registry fails lint: %v", errs)
	}
	sn, err := obs.ScrapeTarget(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if v, n := sn.Sum("fleet_updates_total", nil); n != 1 || v != 600 {
		t.Fatalf("counter = %v over %d samples, want 600 over 1", v, n)
	}
	if v, _ := sn.Sum("monitord_latency_seconds_count", map[string]string{"stage": "apply"}); v != 1 {
		t.Fatalf("apply histogram count = %v, want 1", v)
	}
}
