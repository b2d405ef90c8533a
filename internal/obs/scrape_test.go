package obs_test

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"quicksand/internal/obs"
	"quicksand/internal/testkit"
)

// buildRegistry returns a registry with one counter, one labeled gauge,
// and one labeled histogram, populated with the given sample offset so
// two instances have distinct values.
func buildRegistry(offset int) *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("quicksand_scrape_updates_total", "Updates.").Add(uint64(100 + offset))
	reg.GaugeVec("quicksand_scrape_depth", "Depth.", "shard").With("0").Set(float64(3 + offset))
	reg.GaugeVec("quicksand_scrape_depth", "Depth.", "shard").With("1").Set(float64(5 + offset))
	h := reg.HistogramVec("quicksand_scrape_seconds", "Latency.",
		[]float64{0.001, 0.01, 0.1, 1}, "stage")
	for i := 0; i < 50; i++ {
		h.With("apply").Observe(0.0005)  // first bucket
		h.With("apply").Observe(0.05)    // third bucket
		h.With("monitor").Observe(0.005) // second bucket
	}
	return reg
}

func expositionOf(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestParseExpositionRoundTrip(t *testing.T) {
	text := expositionOf(t, buildRegistry(0))
	snap, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v, n := snap.Sum("quicksand_scrape_updates_total", nil); v != 100 || n != 1 {
		t.Errorf("counter sum = %v over %d samples, want 100 over 1", v, n)
	}
	if v, _ := snap.Sum("quicksand_scrape_depth", map[string]string{"shard": "1"}); v != 5 {
		t.Errorf("gauge{shard=1} = %v, want 5", v)
	}
	// All depth samples regardless of shard.
	if v, n := snap.Sum("quicksand_scrape_depth", nil); v != 8 || n != 2 {
		t.Errorf("gauge sum = %v over %d, want 8 over 2", v, n)
	}
	fam := snap.Family("quicksand_scrape_seconds")
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("histogram family missing or wrong type: %+v", fam)
	}
	if v, _ := snap.Sum("quicksand_scrape_seconds_count", map[string]string{"stage": "apply"}); v != 100 {
		t.Errorf("apply _count = %v, want 100", v)
	}

	// Rendered snapshot must itself parse and lint cleanly.
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if errs := testkit.LintProm(b.String()); errs != nil {
		t.Fatalf("round-tripped exposition fails lint: %v", errs)
	}
	again, err := obs.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := again.Sum("quicksand_scrape_updates_total", nil); v != 100 {
		t.Errorf("second round trip counter = %v, want 100", v)
	}
}

// TestParseExpositionClean pins what the linter reads off a snapshot:
// families and samples in exposition order with their line numbers,
// HELP/TYPE metadata, histogram samples grouped under their family, and
// a plain comment and a timestamp accepted and dropped.
func TestParseExpositionClean(t *testing.T) {
	text := `# scraped by hand
# HELP demo_updates_total Updates ingested.
# TYPE demo_updates_total counter
demo_updates_total 42 1712000000
# TYPE demo_depth gauge
demo_depth{shard="0"} 3
demo_depth{shard="1",} 0
# HELP demo_latency_seconds Latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.1"} 1
demo_latency_seconds_bucket{le="+Inf"} 5
demo_latency_seconds_sum 6.5
demo_latency_seconds_count 5
`
	snap, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Families) != 3 {
		t.Fatalf("got %d families, want 3", len(snap.Families))
	}
	c, g, h := snap.Families[0], snap.Families[1], snap.Families[2]
	if c.Name != "demo_updates_total" || c.Type != "counter" || !c.HasHelp ||
		c.Help != "Updates ingested." || len(c.Samples) != 1 ||
		c.Samples[0].Value != 42 || c.Samples[0].Line != 4 {
		t.Errorf("counter family = %+v", c)
	}
	if g.HasHelp || g.Type != "gauge" || len(g.Samples) != 2 ||
		g.Samples[1].Labels["shard"] != "1" || g.Samples[1].Line != 7 {
		t.Errorf("gauge family = %+v", g)
	}
	if h.Name != "demo_latency_seconds" || len(h.Samples) != 4 || h.Samples[3].Name != "demo_latency_seconds_count" {
		t.Errorf("histogram family = %+v", h)
	}
}

func TestParseExpositionEscapes(t *testing.T) {
	text := "# HELP weird_total A \\\\ help \\n line\n" +
		"# TYPE weird_total counter\n" +
		"weird_total{path=\"a\\\\b\\\"c\\nd\"} 7\n"
	snap, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fam := snap.Family("weird_total")
	if fam == nil {
		t.Fatal("family missing")
	}
	if len(fam.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(fam.Samples))
	}
	if got := fam.Samples[0].Labels["path"]; got != "a\\b\"c\nd" {
		t.Errorf("label = %q", got)
	}
	// Round trip preserves the escaping.
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	again, err := obs.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("re-parse: %v (rendered: %q)", err, b.String())
	}
	if got := again.Family("weird_total").Samples[0].Labels["path"]; got != "a\\b\"c\nd" {
		t.Errorf("round-tripped label = %q", got)
	}

	// HELP text survives the path the fleet's /metrics takes — registry,
	// snapshot, merge, write, parse — even where a literal backslash sits
	// in front of an n.
	const help = "Files under C:\\new, one per\nline."
	reg := obs.NewRegistry()
	reg.Counter("pathy_total", help).Inc()
	sn, err := obs.SnapshotRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := obs.MergeSnapshots(sn)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := merged.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if again, err = obs.ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if got := again.Family("pathy_total").Help; got != help {
		t.Errorf("round-tripped HELP = %q, want %q", got, help)
	}
}

func TestParseExpositionErrors(t *testing.T) {
	for name, text := range map[string]string{
		"label without =":    "metric{foo} 1\n",
		"bad value":          "metric{a=\"b\"} nope\n",
		"unterminated block": "metric{a=\"b\" 1\n",
		"no value":           "justaname\n",
		// The same series twice in one exposition is a defect of the
		// target, not two instances to sum (that is MergeSnapshots).
		"duplicate series": "# TYPE x_total counter\nx_total{a=\"1\",b=\"2\"} 3\nx_total{b=\"2\",a=\"1\"} 4\n",

		"repeated label":      "a{x=\"1\",x=\"2\"} 1\n",
		"empty label slots":   "a{,,x=\"1\"} 1\n",
		"empty label name":    "a{=\"v\"} 1\n",
		"reserved label name": "a{__x=\"v\"} 1\n",
		"bad metric name":     "9a 1\n",
		"bad family name":     "# HELP 9a x\n",
		"unknown escape":      "a{x=\"\\q\"} 1\n",
		"dangling escape":     "a{x=\"\\\n",
		"unquoted label":      "a{x=1} 1\n",
		"junk after value":    "a{x=\"1\" y=\"2\"} 1\n",
		"two timestamps":      "a 1 2 3\n",
		"bad timestamp":       "a 1 nope\n",
		"type without type":   "# TYPE a\n",
		"unknown type":        "# TYPE a bogus\n",
		"invalid utf-8":       "a{x=\"\xff\"} 1\n",
	} {
		if _, err := obs.ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: no error for %q", name, text)
		}
	}
}

func TestScrapeAllMergesInstances(t *testing.T) {
	reg1, reg2 := buildRegistry(0), buildRegistry(100)
	srv1 := httptest.NewServer(obs.Handler(reg1, false))
	defer srv1.Close()
	srv2 := httptest.NewServer(obs.Handler(reg2, false))
	defer srv2.Close()

	var snaps []*obs.Snapshot
	for _, srv := range []*httptest.Server{srv1, srv2} {
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
	if v, n := merged.Sum("quicksand_scrape_updates_total", nil); v != 300 || n != 1 {
		t.Errorf("merged counter = %v over %d samples, want 300 over 1", v, n)
	}
	if v, _ := merged.Sum("quicksand_scrape_depth", map[string]string{"shard": "0"}); v != 106 {
		t.Errorf("merged gauge{shard=0} = %v, want 106", v)
	}
	// Histogram buckets add: each instance has 100 apply observations.
	if v, _ := merged.Sum("quicksand_scrape_seconds_count", map[string]string{"stage": "apply"}); v != 200 {
		t.Errorf("merged apply _count = %v, want 200", v)
	}

	// Aggregated exposition stays lint-clean (covers the new scraped-
	// exposition linter path too).
	var b strings.Builder
	if err := merged.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if errs := testkit.LintProm(b.String()); errs != nil {
		t.Fatalf("merged exposition fails lint: %v", errs)
	}

	// Quantiles over the merged buckets: apply has half its mass at
	// 0.0005 and half at 0.05, so p25 interpolates inside the first
	// bucket and p75 inside the third.
	p25, err := merged.Quantile("quicksand_scrape_seconds", 0.25, map[string]string{"stage": "apply"})
	if err != nil {
		t.Fatal(err)
	}
	if p25 <= 0 || p25 > 0.001 {
		t.Errorf("p25 = %g, want in (0, 0.001]", p25)
	}
	p75, err := merged.Quantile("quicksand_scrape_seconds", 0.75, map[string]string{"stage": "apply"})
	if err != nil {
		t.Fatal(err)
	}
	if p75 <= 0.01 || p75 > 0.1 {
		t.Errorf("p75 = %g, want in (0.01, 0.1]", p75)
	}
	// Merged across both label values: still answers.
	if _, err := merged.Quantile("quicksand_scrape_seconds", 0.5, nil); err != nil {
		t.Fatal(err)
	}
	// Unknown family errors.
	if _, err := merged.Quantile("quicksand_missing_seconds", 0.5, nil); err == nil {
		t.Error("no error for unknown family")
	}
}

func TestScrapeTargetErrors(t *testing.T) {
	if _, err := obs.ScrapeTarget("http://127.0.0.1:1/metrics"); err == nil {
		t.Error("no error for unreachable target")
	}
	srv := httptest.NewServer(obs.Handler(obs.NewRegistry(), false))
	srv.Close()
	if _, err := obs.ScrapeTarget(srv.URL + "/metrics"); err == nil {
		t.Error("no error for closed server")
	}
}

func TestMergeSnapshotsTypeMismatch(t *testing.T) {
	a, err := obs.ParseExposition(strings.NewReader(
		"# HELP m_total x\n# TYPE m_total counter\nm_total 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := obs.ParseExposition(strings.NewReader(
		"# HELP m_total x\n# TYPE m_total gauge\nm_total 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.MergeSnapshots(a, b); err == nil {
		t.Error("no error for type mismatch")
	}
	// nil snapshots are skipped.
	m, err := obs.MergeSnapshots(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Sum("m_total", nil); v != 1 {
		t.Errorf("merge with nil = %v, want 1", v)
	}
}

func TestSnapshotQuantileAgainstHistogram(t *testing.T) {
	// The scraped-side quantile must agree with the in-process one.
	reg := obs.NewRegistry()
	h := reg.Histogram("quicksand_agree_seconds", "x", obs.ExpBucketsRange(1e-6, 10, 22))
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000) // (0.001, 1]
	}
	snap, err := obs.ParseExposition(strings.NewReader(expositionOf(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := h.Quantile(q)
		got, err := snap.Quantile("quicksand_agree_seconds", q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("q=%g: scraped %g != in-process %g", q, got, want)
		}
	}
}
