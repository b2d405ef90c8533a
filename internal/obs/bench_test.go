package obs

import (
	"io"
	"testing"
)

// The primitive costs: live handles are one or two atomic operations,
// nil handles (the disabled state every instrumentation point holds by
// default) are a single branch.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) / 100)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) / 100)
	}
}

// BenchmarkVecWith is the label-resolution cost paid when a call site
// cannot pre-resolve its handle.
func BenchmarkVecWith(b *testing.B) {
	v := NewRegistry().CounterVec("bench_msgs_total", "x", "kind")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("update").Inc()
	}
}

// BenchmarkWritePrometheus renders a registry shaped like the monitord
// exposition: a few scalar families plus a labeled family with many
// series.
func BenchmarkWritePrometheus(b *testing.B) {
	reg := NewRegistry()
	reg.Counter("bench_updates_total", "x").Add(12345)
	reg.Gauge("bench_depth", "x").Add(3)
	h := reg.Histogram("bench_seconds", "x", nil)
	h.Observe(0.01)
	h.Observe(3)
	v := reg.CounterVec("bench_sessions_total", "x", "session", "state")
	for i := 0; i < 64; i++ {
		v.With(string(rune('a'+i%26))+string(rune('a'+i/26)), "up").Add(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
