package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMedianOdd(t *testing.T) {
	got, err := Median([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("Median = %v, want 2", got)
	}
}

func TestMedianEven(t *testing.T) {
	got, err := Median([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}

func TestMedianEmpty(t *testing.T) {
	if _, err := Median(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	p0, err := Percentile(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	p100, err := Percentile(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 10 || p100 != 40 {
		t.Fatalf("p0=%v p100=%v, want 10 and 40", p0, p100)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
}

func TestPercentileOutOfRange(t *testing.T) {
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Fatal("expected error for p=101")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Fatal("expected error for p=-1")
	}
}

func TestPercentileSingle(t *testing.T) {
	got, err := Percentile([]float64{7}, 83)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
}

func TestMeanSumMinMax(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m, _ := Mean(xs); m != 2.5 {
		t.Fatalf("Mean = %v", m)
	}
	if s := Sum(xs); s != 10 {
		t.Fatalf("Sum = %v", s)
	}
	if m, _ := Min(xs); m != 1 {
		t.Fatalf("Min = %v", m)
	}
	if m, _ := Max(xs); m != 4 {
		t.Fatalf("Max = %v", m)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Fatalf("r = %v, want 1", r)
	}
}

func TestPearsonAnticorrelated(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{3, 2, 1}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("expected zero-variance error")
	}
}

func TestPearsonLengthMismatch(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestCCDFBasic(t *testing.T) {
	pts, err := CCDF([]float64{1, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []CCDFPoint{{1, 100}, {2, 50}, {3, 25}}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d: %v", len(pts), len(want), pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCCDFAt(t *testing.T) {
	pts, _ := CCDF([]float64{1, 2, 3, 4})
	if got := CCDFAt(pts, 2); got != 75 {
		t.Fatalf("CCDFAt(2) = %v, want 75", got)
	}
	if got := CCDFAt(pts, 2.5); got != 50 {
		t.Fatalf("CCDFAt(2.5) = %v, want 50", got)
	}
	if got := CCDFAt(pts, 100); got != 0 {
		t.Fatalf("CCDFAt(100) = %v, want 0", got)
	}
	if got := CCDFAt(pts, -5); got != 100 {
		t.Fatalf("CCDFAt(-5) = %v, want 100", got)
	}
}

func TestCCDFEmpty(t *testing.T) {
	if _, err := CCDF(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

// Property: CCDF Percent values are non-increasing, start at 100, and
// Values are strictly increasing.
func TestCCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 16)
		}
		pts, err := CCDF(xs)
		if err != nil {
			return false
		}
		if pts[0].Percent != 100 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value {
				return false
			}
			if pts[i].Percent > pts[i-1].Percent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		min, _ := Min(xs)
		max, _ := Max(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v, err := Percentile(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev {
				t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
			}
			if v < min-1e-9 || v > max+1e-9 {
				t.Fatalf("percentile %v out of [min,max]=[%v,%v]", v, min, max)
			}
			prev = v
		}
	}
}

// Property: Pearson is symmetric and within [-1, 1].
func TestPearsonBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			continue // zero variance sample; skip
		}
		if r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("r = %v out of [-1,1]", r)
		}
		r2, err := Pearson(ys, xs)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(r, r2, 1e-12) {
			t.Fatalf("Pearson not symmetric: %v vs %v", r, r2)
		}
	}
}

func TestHistogram(t *testing.T) {
	counts, err := Histogram([]float64{0, 0.5, 1.5, 2.5, 9.9, 42, -3}, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 3 { // 0, 0.5 and clamped -3
		t.Fatalf("bin0 = %d, want 3", counts[0])
	}
	if counts[9] != 2 { // 9.9 and clamped 42
		t.Fatalf("bin9 = %d, want 2", counts[9])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 7 {
		t.Fatalf("total = %d, want 7", total)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := Histogram(nil, 0, 1, 0); err == nil {
		t.Fatal("expected error for nbins=0")
	}
	if _, err := Histogram(nil, 1, 1, 4); err == nil {
		t.Fatal("expected error for empty range")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

// Property: Median equals Percentile(50).
func TestMedianIsP50(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(25)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(100))
		}
		med, _ := Median(xs)
		p50, _ := Percentile(xs, 50)
		if !almostEqual(med, p50, 1e-9) {
			sort.Float64s(xs)
			t.Fatalf("median=%v p50=%v xs=%v", med, p50, xs)
		}
	}
}

func TestChiSquareExactFit(t *testing.T) {
	obs := []float64{10, 20, 30, 40}
	stat, df, p, err := ChiSquare(obs, obs)
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 || df != 3 || p != 1 {
		t.Fatalf("stat=%v df=%d p=%v, want 0/3/1", stat, df, p)
	}
}

// TestChiSquareCriticalValues pins the survival function against the
// classical 5% critical-value table.
func TestChiSquareCriticalValues(t *testing.T) {
	cases := []struct {
		df   int
		crit float64
	}{
		{1, 3.841},
		{2, 5.991},
		{5, 11.070},
		{10, 18.307},
		{30, 43.773},
	}
	for _, c := range cases {
		// Build a 2-bin ... easier: call chiSquareSF directly.
		if p := chiSquareSF(c.crit, float64(c.df)); !almostEqual(p, 0.05, 5e-4) {
			t.Errorf("SF(%v, df=%d) = %v, want ~0.05", c.crit, c.df, p)
		}
	}
	if p := chiSquareSF(0, 4); p != 1 {
		t.Errorf("SF(0) = %v, want 1", p)
	}
	if p := chiSquareSF(1e6, 4); p > 1e-12 {
		t.Errorf("SF(1e6) = %v, want ~0", p)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, _, err := ChiSquare([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, _, err := ChiSquare([]float64{1}, []float64{1}); err == nil {
		t.Error("single bin accepted")
	}
	if _, _, _, err := ChiSquare([]float64{1, 2}, []float64{1, 0}); err == nil {
		t.Error("zero expected count accepted")
	}
}

// Property: the chi-square statistic of multinomial samples drawn from the
// expected distribution itself should only rarely exceed the 0.1% critical
// region. With fixed seeds this is deterministic.
func TestChiSquareOnTrueDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	weights := []float64{0.4, 0.3, 0.2, 0.1}
	const draws = 5000
	low := 0
	for trial := 0; trial < 40; trial++ {
		obs := make([]float64, len(weights))
		for i := 0; i < draws; i++ {
			r := rng.Float64()
			for j, w := range weights {
				if r < w || j == len(weights)-1 {
					obs[j]++
					break
				}
				r -= w
			}
		}
		exp := make([]float64, len(weights))
		for j, w := range weights {
			exp[j] = w * draws
		}
		_, _, p, err := ChiSquare(obs, exp)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0.001 {
			low++
		}
	}
	if low > 1 {
		t.Fatalf("%d/40 trials below the 0.1%% p-value on the true distribution", low)
	}
}

func TestMergeSmallBins(t *testing.T) {
	obs := []float64{1, 2, 3, 4, 0.5}
	exp := []float64{0.5, 6, 2, 4, 0.5}
	mo, me, err := MergeSmallBins(obs, exp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if Sum(mo) != Sum(obs) || Sum(me) != Sum(exp) {
		t.Fatalf("totals changed: %v/%v vs %v/%v", Sum(mo), Sum(me), Sum(obs), Sum(exp))
	}
	for i, e := range me {
		if e < 5 {
			t.Fatalf("bin %d expected %v below the floor", i, e)
		}
	}
	if _, _, err := MergeSmallBins([]float64{1}, []float64{1}, 5); err == nil {
		t.Error("under-mass input accepted")
	}
	if _, _, err := MergeSmallBins([]float64{1}, []float64{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
}
