package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("quicksand_widgets_total", "Widgets made.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("quicksand_depth", "Queue depth.")
	g.Add(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Re-registration returns the same series.
	if r.Counter("quicksand_widgets_total", "Widgets made.").Value() != 5 {
		t.Fatal("re-registered counter lost its value")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("g", "g")
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("h", "h", nil)
	h.Observe(1)
	if h.Sum() != 0 {
		t.Fatal("nil histogram observed")
	}
	r.GaugeFunc("f", "f", func() float64 { return 1 })
	r.Collect("c", "c", KindGauge, nil, nil)
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	var cv *CounterVec
	if cv.With("a") != nil {
		t.Fatal("nil vec returned a counter")
	}
	var gv *GaugeVec
	if gv.With() != nil {
		t.Fatal("nil gauge vec returned a gauge")
	}
	var hv *HistogramVec
	if hv.With() != nil {
		t.Fatal("nil histogram vec returned a histogram")
	}
}

func TestVecCachingAndLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("quicksand_msgs_total", "Messages.", "type", "dir")
	cv.With("open", "in").Add(2)
	cv.With("open", "in").Inc()
	cv.With("update", "out").Inc()
	if got := cv.With("open", "in").Value(); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP quicksand_msgs_total Messages.\n",
		"# TYPE quicksand_msgs_total counter\n",
		`quicksand_msgs_total{type="open",dir="in"} 3` + "\n",
		`quicksand_msgs_total{type="update",dir="out"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("quicksand_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.n.Load() != 5 {
		t.Fatalf("count = %d", h.n.Load())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP quicksand_latency_seconds Latency.
# TYPE quicksand_latency_seconds histogram
quicksand_latency_seconds_bucket{le="0.1"} 1
quicksand_latency_seconds_bucket{le="1"} 3
quicksand_latency_seconds_bucket{le="10"} 4
quicksand_latency_seconds_bucket{le="+Inf"} 5
quicksand_latency_seconds_sum 56.05
quicksand_latency_seconds_count 5
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("quicksand_exec_seconds", "Exec.", []float64{1}, "pool")
	hv.With("e3").Observe(0.5)
	hv.With("e3").Observe(2)
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		`quicksand_exec_seconds_bucket{pool="e3",le="1"} 1`,
		`quicksand_exec_seconds_bucket{pool="e3",le="+Inf"} 2`,
		`quicksand_exec_seconds_sum{pool="e3"} 2.5`,
		`quicksand_exec_seconds_count{pool="e3"} 2`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

func TestCollectAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "Last family.").Inc()
	r.Collect("aa_depth", "Sampled depths.", KindGauge, []string{"shard"}, func(emit Emit) {
		emit([]string{"1"}, 7)
		emit([]string{"0"}, 3)
	})
	r.GaugeFunc("mm_uptime_seconds", "Uptime.", func() float64 { return 1.25 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_depth Sampled depths.
# TYPE aa_depth gauge
aa_depth{shard="0"} 3
aa_depth{shard="1"} 7
# HELP mm_uptime_seconds Uptime.
# TYPE mm_uptime_seconds gauge
mm_uptime_seconds 1.25
# HELP zz_total Last family.
# TYPE zz_total counter
zz_total 1
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "Help with \\ and\nnewline.", "path").
		With("a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total Help with \\ and\nnewline.`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("bad metric name", func() { r.Counter("9bad", "x") })
	expectPanic("bad label name", func() { r.CounterVec("ok_total", "x", "9bad") })
	expectPanic("reserved label", func() { r.CounterVec("ok2_total", "x", "__name") })
	r.Counter("dup_total", "x")
	expectPanic("kind mismatch", func() { r.Gauge("dup_total", "x") })
	expectPanic("label mismatch", func() { r.CounterVec("dup_total", "x", "k") })
	expectPanic("bad buckets", func() { r.Histogram("hist", "x", []float64{1, 1}) })
	expectPanic("wrong label count", func() { r.CounterVec("lv_total", "x", "a").With() })
	expectPanic("collector label count", func() {
		r.Collect("col", "x", KindGauge, []string{"a"}, func(emit Emit) { emit(nil, 1) })
		var b strings.Builder
		r.WritePrometheus(&b)
	})
}

func TestConcurrentHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "x")
	g := r.Gauge("conc_gauge", "x")
	h := r.Histogram("conc_hist", "x", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) * 1.0)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v", g.Value())
	}
	if h.n.Load() != 8000 {
		t.Errorf("hist count = %d", h.n.Load())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCounter: "counter", KindGauge: "gauge", KindHistogram: "histogram", Kind(99): "untyped",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{
		0: "0", 2: "2", -3: "-3", 1.5: "1.5", 1e16: "1e+16",
	} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
