package par

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// drawMix makes n draws from r that mix every rand.Rand method the
// program uses, and returns them as one sequence of words.
func drawMix(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, 0, n+64)
	for len(out) < n {
		switch len(out) % 12 {
		case 0:
			out = append(out, uint64(r.Int63()))
		case 1:
			out = append(out, r.Uint64())
		case 2:
			out = append(out, uint64(r.Intn(1000)))
		case 3:
			out = append(out, uint64(r.Int63n(1<<40+3)))
		case 4:
			out = append(out, math.Float64bits(r.Float64()))
		case 5:
			for _, v := range r.Perm(7) {
				out = append(out, uint64(v))
			}
		case 6:
			s := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
			r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			for _, v := range s {
				out = append(out, uint64(v))
			}
		case 7:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case 8:
			out = append(out, math.Float64bits(r.ExpFloat64()))
		case 9:
			out = append(out, uint64(r.Int31n(1<<20+7)), uint64(r.Uint32()))
		case 10:
			out = append(out, uint64(r.Intn(1<<62)))
		case 11:
			var b [5]byte
			r.Read(b[:])
			for _, v := range b {
				out = append(out, uint64(v))
			}
		}
	}
	return out
}

const diffWords = 3200

func diffSeeds() []int64 {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 1 << 31, -1 << 31,
		math.MinInt64, math.MaxInt64, 89482311}
	for i := range 300 {
		seeds = append(seeds, TrialSeed(int64(i/10), i))
	}
	return seeds
}

func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestNewRandMatchesStdlib is the differential test: for every seed
// class math/rand's seeding treats specially, and for 300 trial seeds,
// NewRand gives the same draws as rand.New(rand.NewSource(seed)) across
// the closed-form prefix, the switch to the full state and far beyond it
// (diffWords words take about as many draws).
func TestNewRandMatchesStdlib(t *testing.T) {
	for _, seed := range diffSeeds() {
		want := drawMix(rand.New(rand.NewSource(seed)), diffWords)
		got := drawMix(NewRand(seed), diffWords)
		if i := firstDiff(want, got); i >= 0 {
			t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, got[i], want[i])
		}
	}
}

// TestNewRandReseed checks that reseeding a used *rand.Rand, whether
// its state is built or not, restarts it on the new seed's stream.
func TestNewRandReseed(t *testing.T) {
	r := NewRand(5)
	for i, seed := range diffSeeds() {
		drawMix(r, []int{0, 3, lazyDraws - 1, lazyDraws, 700}[i%5])
		r.Seed(seed)
		want := drawMix(rand.New(rand.NewSource(seed)), diffWords)
		if j := firstDiff(want, drawMix(r, diffWords)); j >= 0 {
			t.Fatalf("reseeded to %d: draw %d differs from math/rand", seed, j)
		}
	}
}

func FuzzNewRandMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(math.MinInt64), uint16(lazyDraws))
	f.Add(int64(lcgMod), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want := drawMix(rand.New(rand.NewSource(seed)), int(n))
		if i := firstDiff(want, drawMix(NewRand(seed), int(n))); i >= 0 {
			t.Fatalf("seed %d: draw %d differs from math/rand", seed, i)
		}
	})
}

// BenchmarkRandLongStream times one draw from a stream whose state is
// built, against math/rand's own source.
func BenchmarkRandLongStream(b *testing.B) {
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{
		{"stdlib", rand.New(rand.NewSource(1))},
		{"NewRand", NewRand(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := bc.r
			for range lazyDraws {
				r.Int63()
			}
			var sink int64
			for range b.N {
				sink += r.Int63()
			}
			_ = sink
		})
	}
}

// BenchmarkRandShortStream times seeding a stream and making a few
// draws, the shape of a generator's per-stub or a study's per-trial
// stream.
func BenchmarkRandShortStream(b *testing.B) {
	for _, draws := range []int{4, 32, 256} {
		b.Run("stdlib/"+strconv.Itoa(draws), func(b *testing.B) {
			for i := range b.N {
				r := rand.New(rand.NewSource(int64(i)))
				for range draws {
					r.Int63()
				}
			}
		})
		b.Run("NewRand/"+strconv.Itoa(draws), func(b *testing.B) {
			for i := range b.N {
				r := NewRand(int64(i))
				for range draws {
					r.Int63()
				}
			}
		})
		b.Run("reseed/"+strconv.Itoa(draws), func(b *testing.B) {
			r := NewRand(0)
			for i := range b.N {
				r.Seed(int64(i))
				for range draws {
					r.Int63()
				}
			}
		})
	}
}
