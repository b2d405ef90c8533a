package obs

import (
	"fmt"
	"math"
)

// QuantileFromCumulative estimates quantile q from cumulative bucket
// counts, interpolating linearly within the owning bucket the way
// Prometheus's histogram_quantile does; samples in the +Inf bucket clamp
// the estimate to the largest finite bound. bounds holds the finite
// upper bounds in increasing order; cum must have len(bounds)+1 entries,
// the last being the total including the implicit +Inf bucket — the
// shape a scraped histogram series already has. Returns NaN when the
// total is zero or q is outside [0, 1].
func QuantileFromCumulative(bounds []float64, cum []uint64, q float64) float64 {
	if len(cum) != len(bounds)+1 {
		panic(fmt.Sprintf("obs: QuantileFromCumulative wants %d cumulative counts, got %d",
			len(bounds)+1, len(cum)))
	}
	total := cum[len(cum)-1]
	if total == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	b := 0
	for b < len(cum) && float64(cum[b]) < rank {
		b++
	}
	if b >= len(bounds) {
		// The quantile lands in the +Inf bucket: the best available
		// estimate is the largest finite bound.
		if len(bounds) == 0 {
			return math.NaN()
		}
		return bounds[len(bounds)-1]
	}
	lower := 0.0
	prev := uint64(0)
	if b > 0 {
		lower = bounds[b-1]
		prev = cum[b-1]
	}
	upper := bounds[b]
	inBucket := cum[b] - prev
	if inBucket == 0 {
		return upper
	}
	return lower + (upper-lower)*(rank-float64(prev))/float64(inBucket)
}
