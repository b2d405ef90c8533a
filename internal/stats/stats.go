// Package stats provides the statistical primitives shared by every
// experiment in the quicksand reproduction: percentiles, medians, empirical
// CCDFs, Pearson correlation, and small summary helpers.
//
// All functions are deterministic and operate on plain float64 slices so
// that analysis packages stay decoupled from each other. Inputs are never
// mutated unless the function name says so (e.g. SortInPlace).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a value from an
// empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Median returns the median of xs. For even-length samples it returns the
// mean of the two middle order statistics. It returns ErrEmpty when xs is
// empty.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks (the same convention as numpy's
// default). It returns ErrEmpty when xs is empty.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Mean returns the arithmetic mean of xs, or ErrEmpty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Min returns the minimum of xs, or ErrEmpty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs, or ErrEmpty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs and ys. It returns an error when the slices differ in
// length, are empty, or when either sample has zero variance (the
// coefficient is undefined in that case).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance, correlation undefined")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CCDFPoint is one point of an empirical complementary cumulative
// distribution function: Fraction is the fraction of samples with a value
// strictly greater than or equal to Value, expressed in percent to match
// the paper's figures.
type CCDFPoint struct {
	Value   float64
	Percent float64 // 100 * P[X >= Value]
}

// CCDF computes the empirical complementary cumulative distribution
// function of xs, evaluated at each distinct sample value in ascending
// order. The returned Percent values are 100*P[X >= Value], so the first
// point is always 100 and the sequence is non-increasing. It returns
// ErrEmpty when xs is empty.
func CCDF(xs []float64) ([]CCDFPoint, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var pts []CCDFPoint
	for i := 0; i < len(s); {
		v := s[i]
		// All samples from index i upward are >= v.
		pts = append(pts, CCDFPoint{Value: v, Percent: 100 * float64(len(s)-i) / n})
		j := i
		for j < len(s) && s[j] == v {
			j++
		}
		i = j
	}
	return pts, nil
}

// CCDFAt evaluates an empirical CCDF (as returned by CCDF) at value v,
// returning 100*P[X >= v]. Points must be sorted by Value ascending, as
// CCDF guarantees.
func CCDFAt(pts []CCDFPoint, v float64) float64 {
	// Find the first point with Value >= v; its Percent is P[X >= Value]
	// which equals P[X >= v] because no sample lies in (prev, Value).
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Value >= v })
	if i == len(pts) {
		return 0
	}
	return pts[i].Percent
}

// ChiSquare computes Pearson's chi-square goodness-of-fit statistic for
// observed counts against expected counts, returning the statistic, the
// degrees of freedom (len-1), and the p-value P[X >= stat] under the
// chi-square distribution. The testkit uses it to verify that empirical
// bandwidth-weighted relay selection matches the analytic weights.
//
// Expected counts must be strictly positive; the classical validity rule
// of thumb (every expected count >= 5) is the caller's responsibility —
// see MergeSmallBins.
func ChiSquare(observed, expected []float64) (stat float64, df int, p float64, err error) {
	if len(observed) != len(expected) {
		return 0, 0, 0, fmt.Errorf("stats: length mismatch %d != %d", len(observed), len(expected))
	}
	if len(observed) < 2 {
		return 0, 0, 0, fmt.Errorf("stats: chi-square needs at least 2 bins, got %d", len(observed))
	}
	for i, e := range expected {
		if e <= 0 {
			return 0, 0, 0, fmt.Errorf("stats: non-positive expected count %v in bin %d", e, i)
		}
	}
	for i := range observed {
		d := observed[i] - expected[i]
		stat += d * d / expected[i]
	}
	df = len(observed) - 1
	p = chiSquareSF(stat, float64(df))
	return stat, df, p, nil
}

// MergeSmallBins coalesces adjacent bins until every expected count is at
// least minExpected, returning the merged (observed, expected) pair. It
// preserves totals exactly. The input slices are not modified. This is the
// standard preprocessing step that keeps the chi-square approximation
// valid on long-tailed weight distributions.
func MergeSmallBins(observed, expected []float64, minExpected float64) ([]float64, []float64, error) {
	if len(observed) != len(expected) {
		return nil, nil, fmt.Errorf("stats: length mismatch %d != %d", len(observed), len(expected))
	}
	var obs, exp []float64
	var accO, accE float64
	for i := range expected {
		accO += observed[i]
		accE += expected[i]
		if accE >= minExpected {
			obs = append(obs, accO)
			exp = append(exp, accE)
			accO, accE = 0, 0
		}
	}
	// Fold any under-filled remainder into the last emitted bin.
	if accE > 0 {
		if len(exp) == 0 {
			return nil, nil, fmt.Errorf("stats: total expected mass %v below minimum %v", accE, minExpected)
		}
		obs[len(obs)-1] += accO
		exp[len(exp)-1] += accE
	}
	return obs, exp, nil
}

// chiSquareSF is the chi-square survival function P[X >= x] with df
// degrees of freedom: the upper regularized incomplete gamma function
// Q(df/2, x/2).
func chiSquareSF(x, df float64) float64 {
	if x <= 0 {
		return 1
	}
	return gammaQ(df/2, x/2)
}

// gammaQ computes the upper regularized incomplete gamma function Q(a, x)
// = Γ(a, x)/Γ(a) using the series expansion for x < a+1 and the continued
// fraction otherwise (Numerical Recipes §6.2).
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a, x) by its power series.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a, x) by its continued fraction
// (modified Lentz's method).
func gammaQContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// Summary holds the five-number-style summary used across EXPERIMENTS.md.
type Summary struct {
	N      int
	Min    float64
	Median float64
	Mean   float64
	P75    float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary of xs, or returns ErrEmpty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	min, _ := Min(xs)
	max, _ := Max(xs)
	med, _ := Median(xs)
	mean, _ := Mean(xs)
	p75, _ := Percentile(xs, 75)
	p90, _ := Percentile(xs, 90)
	return Summary{N: len(xs), Min: min, Median: med, Mean: mean, P75: p75, P90: p90, Max: max}, nil
}

// String renders the summary on one line for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g median=%.3g mean=%.3g p75=%.3g p90=%.3g max=%.3g",
		s.N, s.Min, s.Median, s.Mean, s.P75, s.P90, s.Max)
}
