package obs

import (
	"math"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bucket[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestExpBucketsRange(t *testing.T) {
	got := ExpBucketsRange(1e-6, 10, 22)
	if len(got) != 22 {
		t.Fatalf("len = %d, want 22", len(got))
	}
	if got[0] != 1e-6 {
		t.Errorf("first = %g, want 1e-6", got[0])
	}
	if got[21] != 10 {
		t.Errorf("last = %g, want 10", got[21])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("bounds not increasing at %d: %g after %g", i, got[i], got[i-1])
		}
	}
	// Constant ratio between adjacent bounds (log-spaced).
	r0 := got[1] / got[0]
	for i := 2; i < len(got); i++ {
		r := got[i] / got[i-1]
		if math.Abs(r-r0)/r0 > 1e-9 {
			t.Errorf("ratio drifts at %d: %g vs %g", i, r, r0)
		}
	}
	// The registry must accept them as histogram bounds.
	reg := NewRegistry()
	reg.Histogram("quicksand_exp_seconds", "Exp-bucketed.", ExpBucketsRange(1e-6, 10, 22))
}

func TestExpBucketsPanics(t *testing.T) {
	cases := []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
		func() { ExpBucketsRange(0, 1, 4) },
		func() { ExpBucketsRange(1, 1, 4) },
		func() { ExpBucketsRange(1, 2, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestHistogramQuantile pins QuantileFromCumulative's interpolation on
// a live histogram's buckets.
func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("quicksand_q_seconds", "Quantile test.", []float64{1, 2, 4, 8})
	quantile := func(q float64) float64 {
		cum := make([]uint64, len(h.counts))
		var run uint64
		for i := range h.counts {
			run += h.counts[i].Load()
			cum[i] = run
		}
		return QuantileFromCumulative(h.bounds, cum, q)
	}
	if !math.IsNaN(quantile(0.5)) {
		t.Errorf("empty histogram quantile = %g, want NaN", quantile(0.5))
	}
	// 100 samples uniform in (0,1]: every quantile interpolates inside
	// the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 = %g, want 0.5", got)
	}
	if got := quantile(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("p100 = %g, want 1", got)
	}
	// Push 100 more into (1,2]: p75 lands mid second bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(1 + float64(i)/100)
	}
	if got := quantile(0.75); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p75 = %g, want 1.5", got)
	}
	if math.IsNaN(quantile(0.999)) || quantile(0.999) > 2 {
		t.Errorf("p99.9 = %g, want <= 2", quantile(0.999))
	}
	// Out-of-range q.
	if !math.IsNaN(quantile(-0.1)) || !math.IsNaN(quantile(1.1)) {
		t.Errorf("out-of-range q did not return NaN")
	}
}

func TestQuantileFromCumulativeInfBucket(t *testing.T) {
	bounds := []float64{1, 2}
	// Everything in +Inf: clamp to largest finite bound.
	if got := QuantileFromCumulative(bounds, []uint64{0, 0, 10}, 0.5); got != 2 {
		t.Errorf("all-inf p50 = %g, want 2", got)
	}
	// Empty.
	if got := QuantileFromCumulative(bounds, []uint64{0, 0, 0}, 0.5); !math.IsNaN(got) {
		t.Errorf("empty = %g, want NaN", got)
	}
	// No finite bounds at all.
	if got := QuantileFromCumulative(nil, []uint64{5}, 0.5); !math.IsNaN(got) {
		t.Errorf("no finite bounds = %g, want NaN", got)
	}
	// Tiny totals: rank clamps to 1 so q=0 maps into the first occupied
	// bucket rather than below it.
	if got := QuantileFromCumulative(bounds, []uint64{1, 1, 1}, 0); math.IsNaN(got) || got > 1 {
		t.Errorf("q=0 single sample = %g, want <= 1", got)
	}
}

func TestQuantileFromCumulativeLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	QuantileFromCumulative([]float64{1}, []uint64{1}, 0.5)
}
