package par

import (
	"math/rand"
	"sync"
)

// math/rand's generator: an additive lagged Fibonacci register of
// rngLen words, x[n] = x[n-rngLen] + x[n-rngTap], seeded from the Lehmer
// LCG x' = 48271·x mod (2³¹−1).
const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // the feed cell before the first draw
	lcgMul  = 48271
	lcgMod  = 1<<31 - 1

	// seedSkip is how many LCG steps math/rand discards before the first
	// state word: word i mixes x[seedSkip+1+3i], x[seedSkip+2+3i] and
	// x[seedSkip+3+3i].
	seedSkip = 20

	// lazyDraws is how many draws a stream serves from the closed form
	// before it builds its full state. Each early draw costs six
	// modular multiplications; the state costs 1,821 and one 4.9 KB
	// buffer, which most short streams never need.
	lazyDraws = 48
)

// rngTables are the two tables every source shares.
type rngTables struct {
	// cooked is math/rand's fixed table of 607 words that seeding XORs
	// into the LCG's output.
	cooked [rngLen]int64
	// jump[n] = 48271^(seedSkip+1+n) mod (2³¹−1): the LCG value n+1
	// steps after the discarded prefix is x₀·jump[n], so any state word
	// is three multiplications from the seed.
	jump [3 * rngLen]uint32
}

// loadTables builds the tables once per process, at the first seeding.
var loadTables = sync.OnceValue(func() *rngTables {
	t := new(rngTables)
	m := uint64(1)
	for range seedSkip + 1 {
		m = mulMod(m, lcgMul)
	}
	for n := range t.jump {
		t.jump[n] = uint32(m)
		m = mulMod(m, lcgMul)
	}
	// Recover cooked from math/rand itself rather than copying it: seed
	// 1 makes x₀ = 1, and the first rngLen outputs fix the initial state.
	// Draw k (from 1) adds the tap cell rngLen−k into the feed cell
	// rngFeed−k (mod rngLen) and returns the sum. Every cell is fed
	// exactly once in those draws, and draw k's tap cell was fed by draw
	// k−rngTap when k > rngTap and still holds its initial word otherwise.
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[(rngFeed-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngFeed-k] = out[k] - vec[rngLen-k]
	}
	for i := range vec {
		t.cooked[i] = vec[i] ^ lcgWord(1, &t.jump, i)
	}
	return t
})

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1). Since 2³¹ ≡ 1,
// folding the high bits onto the low ones twice leaves a value in
// [1, 2³¹−1]; it cannot be 2³¹−1 itself, because 2³¹−1 is prime and
// neither factor is a multiple of it. No branch: the second fold
// carries about half the time.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lcgMod + p>>31
	return r&lcgMod + r>>31
}

// lcgWord is the LCG part of state word i for LCG seed x0, before the
// XOR with cooked[i].
func lcgWord(x0 uint64, jump *[3 * rngLen]uint32, i int) int64 {
	j := jump[3*i : 3*i+3 : 3*i+3]
	return int64(mulMod(x0, uint64(j[0])))<<40 ^
		int64(mulMod(x0, uint64(j[1])))<<20 ^
		int64(mulMod(x0, uint64(j[2])))
}

// source is a rand.Source64 whose draws equal rand.NewSource's for the
// same seed. Seeding stores the LCG seed and nothing else; the first
// lazyDraws draws are computed straight from it, and only then is the
// 607-word state built and run like math/rand's.
type source struct {
	tap, feed int
	vec       *[rngLen]int64 // the state once drawn == lazyDraws; kept across Seed
	drawn     int            // draws so far, saturating at lazyDraws
	x0        uint64         // the LCG seed, in [1, 2³¹−1)
	t         *rngTables
}

// NewRand returns a *rand.Rand whose every draw equals that of
// rand.New(rand.NewSource(seed)), but whose seeding costs a few
// nanoseconds instead of thousands of LCG steps and a 4.9 KB state.
// Seed on the result reseeds it just as cheaply and keeps its buffer,
// so a loop with a worker index can reuse one *rand.Rand per worker.
func NewRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed reduces seed to an LCG seed exactly as math/rand does.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.drawn = 0
	s.t = loadTables()
}

// Int63 returns a non-negative pseudo-random 63-bit integer. Its body
// repeats Uint64's: a call to early keeps Uint64 from being inlined, and
// a long stream's draw is this function.
func (s *source) Int63() int64 {
	if s.drawn < lazyDraws {
		return int64(s.early() & (1<<63 - 1))
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & (1<<63 - 1)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	if s.drawn < lazyDraws {
		return s.early()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// word is state word i before any draw.
func (s *source) word(i int) int64 {
	return s.t.cooked[i] ^ lcgWord(s.x0, &s.t.jump, i)
}

// early serves draw k ≤ lazyDraws < rngTap: its feed cell rngFeed−k and
// tap cell rngLen−k have not been written yet, so the draw is the sum of
// two initial words. The last one builds the state.
func (s *source) early() uint64 {
	s.drawn++
	k := s.drawn
	x := s.word(rngFeed-k) + s.word(rngLen-k)
	if k == lazyDraws {
		s.materialize()
	}
	return uint64(x)
}

// materialize builds the state math/rand would hold after lazyDraws
// draws: every initial word, with each drawn sum written back to its
// feed cell.
func (s *source) materialize() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= lazyDraws; k++ {
		s.vec[rngFeed-k] += s.vec[rngLen-k]
	}
	s.tap = rngLen - lazyDraws
	s.feed = rngFeed - lazyDraws
}
