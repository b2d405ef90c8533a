// Package par is the program's one worker pool: a bounded fan-out with
// per-worker indices, ordered result collection and deterministic error
// propagation, plus splitmix64-based per-trial seed derivation.
//
// It has two entry points. Map is the observed fan-out: it runs a
// study's trials, and an installed Observer (-v, -trace) sees each call
// as one trial. ForEachWorker is the unobserved fan-out under it: it
// hands each task the index of the worker running it, so route-table
// work (the churn month's recomputes, topology.RouteSet, the resilience
// matrix's guard shards) keeps one scratch per worker in a plain slice,
// and none of it is reported as a trial.
//
// The contract every study in the root package relies on is that a
// fan-out over n independent trials produces bit-for-bit identical
// results for ANY worker count, including 1. Two rules make that hold:
//
//  1. results are collected positionally (trial i writes slot i), so
//     scheduling order never reorders output;
//  2. no trial reads a shared RNG — each seeds its own stream from
//     TrialSeed(studySeed, i), so no trial's draws depend on how many
//     trials ran before it on the same goroutine.
//
// Every stream in the program is a NewRand. It draws exactly what
// rand.New(rand.NewSource(seed)) draws, so no output depends on it, but
// seeding costs nanoseconds rather than math/rand's 1,841 LCG steps into
// a 4.9 KB state. It is exact because math/rand's seeding is closed
// form: state word i is cooked[i] XOR three values of the LCG
// x' = 48271·x mod (2³¹−1), and the n-th LCG value is x₀·48271ⁿ, one
// multiplication by a precomputed power. The additive generator's first
// 273 draws each add two words no earlier draw wrote, so a stream's first
// draws need only those words; the full state is built once a stream
// outlives them. cooked is solved once from math/rand's own first 607
// outputs, not copied, and TestNewRandMatchesStdlib checks the draws.
//
// Stdlib only.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalises a worker-count knob: values below 1 mean "one
// worker per available CPU" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) on ForEachWorker's pool and
// returns the results in index order, with ForEachWorker's worker bound
// and error semantics. fn must be safe for concurrent invocation.
//
// Map is the studies' trial fan-out: when an Observer is installed,
// every fn(i) is one traced, progress-counted trial.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ob := observer.Load(); ob != nil {
		fn = instrumented(ob, n, fn)
	}
	out := make([]T, n)
	err := ForEachWorker(workers, n, func(_, i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachWorker runs fn(w, i) for every i in [0, n) on
// min(Workers(workers), n) workers, the calling goroutine running as
// worker 0, and returns once every call has. w is the index of the
// worker making the call, in [0, min(Workers(workers), n)), so a caller
// can keep one scratch buffer per worker in a slice indexed by w. fn
// must be safe for concurrent invocation with distinct w.
//
// Error propagation is deterministic: indices are dispatched in
// ascending order, and once a call fails no index beyond the smallest
// failing one is started; after in-flight calls drain, the error with
// the smallest index is returned. A sequential run and an 8-worker run
// therefore report the same error.
//
// ForEachWorker never consults the Observer: it is the fan-out for work
// that is not a study's trials.
func ForEachWorker(workers, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(Workers(workers), n)
	var (
		next     atomic.Int64
		errIdx   atomic.Int64 // smallest failing index so far; n for none
		mu       sync.Mutex   // guards firstErr and orders errIdx updates
		firstErr error
		wg       sync.WaitGroup
	)
	errIdx.Store(int64(n))
	work := func(w int) {
		for {
			i := next.Add(1) - 1
			if i >= int64(n) || i > errIdx.Load() {
				return
			}
			if err := fn(w, int(i)); err != nil {
				mu.Lock()
				if i < errIdx.Load() {
					firstErr = err
					errIdx.Store(i)
				}
				mu.Unlock()
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return firstErr
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix generator —
// a cheap, high-quality 64-bit mixer.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// TrialSeed derives the RNG seed for trial i of a study rooted at seed.
// Distinct trials of the same study get statistically independent
// streams, and the derivation depends only on (seed, i) — never on
// which worker runs the trial or in what order — which is what makes
// study results identical across worker counts. Nest calls to derive
// sub-streams: TrialSeed(TrialSeed(seed, i), k).
func TrialSeed(seed int64, trial int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	z = splitmix64(z + 0x9e3779b97f4a7c15*uint64(uint(trial)+1))
	return int64(splitmix64(z))
}
