package obs_test

import (
	"strings"
	"testing"

	"quicksand/internal/obs"
	"quicksand/internal/testkit"
)

// TestExpositionPassesLint renders a registry exercising every feature
// of the exposition writer — all three kinds, labels with escapes,
// collectors — and runs the shared Prometheus linter over it.
func TestExpositionPassesLint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("obs_demo_events_total", "Events.").Add(3)
	reg.CounterVec("obs_demo_msgs_total", "Messages.", "type", "dir").With("open", "in").Inc()
	reg.Gauge("obs_demo_depth", "Depth.").Add(1.5)
	h := reg.Histogram("obs_demo_latency_seconds", "Latency.", nil)
	for _, v := range []float64{0.0001, 0.05, 2, 100} {
		h.Observe(v)
	}
	reg.HistogramVec("obs_demo_exec_seconds", "Exec.", []float64{0.5, 1}, "pool").
		With(`we"ird\pool`).Observe(0.75)
	reg.Collect("obs_demo_sampled", "Sampled.", obs.KindGauge, []string{"shard"},
		func(emit obs.Emit) {
			emit([]string{"0"}, 7)
			emit([]string{"1"}, 9)
		})
	reg.GaugeFunc("obs_demo_uptime_seconds", "Uptime.", func() float64 { return 12.5 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if errs := testkit.LintProm(b.String()); len(errs) != 0 {
		t.Fatalf("obs exposition fails lint:\n%v\n\n%s", errs, b.String())
	}
	// The linter must see exactly the families registered.
	snap, err := obs.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Families) != 7 {
		t.Fatalf("parsed %d families, want 7", len(snap.Families))
	}
}
