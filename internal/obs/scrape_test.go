package obs_test

import (
	"math"
	"strings"
	"testing"

	"quicksand/internal/obs"
)

// buildRegistry returns a registry with one counter, one labeled gauge,
// and one labeled histogram.
func buildRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("quicksand_scrape_updates_total", "Updates.").Add(100)
	reg.GaugeVec("quicksand_scrape_depth", "Depth.", "shard").With("0").Add(3)
	reg.GaugeVec("quicksand_scrape_depth", "Depth.", "shard").With("1").Add(5)
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
	text := expositionOf(t, buildRegistry())
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

	// A label value and HELP text survive the registry's writer and the
	// parser, even where a literal backslash sits in front of an n.
	const help = "Files under C:\\new, one per\nline."
	reg := obs.NewRegistry()
	reg.CounterVec("pathy_total", help, "path").With("a\\b\"c\nd").Inc()
	again, err := obs.ParseExposition(strings.NewReader(expositionOf(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	fam = again.Family("pathy_total")
	if fam.Help != help || fam.Samples[0].Labels["path"] != "a\\b\"c\nd" {
		t.Errorf("round-tripped HELP %q, label %q", fam.Help, fam.Samples[0].Labels["path"])
	}
}

func TestParseExpositionErrors(t *testing.T) {
	for name, text := range map[string]string{
		"label without =":    "metric{foo} 1\n",
		"bad value":          "metric{a=\"b\"} nope\n",
		"unterminated block": "metric{a=\"b\" 1\n",
		"no value":           "justaname\n",
		// The same series twice in one exposition is a defect of the
		// target.
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

func TestSnapshotQuantileAgainstHistogram(t *testing.T) {
	// The scraped-side quantile must agree with the one over the
	// histogram's true cumulative bucket counts.
	reg := obs.NewRegistry()
	bounds := obs.ExpBucketsRange(1e-6, 10, 22)
	h := reg.Histogram("quicksand_agree_seconds", "x", bounds)
	cum := make([]uint64, len(bounds)+1)
	for i := 1; i <= 1000; i++ {
		v := float64(i) / 1000 // (0.001, 1]
		h.Observe(v)
		for b := range cum {
			if b == len(bounds) || v <= bounds[b] {
				cum[b]++
			}
		}
	}
	snap, err := obs.ParseExposition(strings.NewReader(expositionOf(t, reg)))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := obs.QuantileFromCumulative(bounds, cum, q)
		got, err := snap.Quantile("quicksand_agree_seconds", q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("q=%g: scraped %g != %g", q, got, want)
		}
	}
}
