package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 100} {
		out, err := Map(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: len=%d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("got %v, %v", out, err)
	}
	out, err = Map(4, -3, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("negative n: got %v, %v", out, err)
	}
}

// fanOuts runs each error test on both entry points: Map, and the
// ForEachWorker pool under it.
var fanOuts = []struct {
	name string
	run  func(workers, n int, fn func(i int) error) error
}{
	{"Map", func(workers, n int, fn func(i int) error) error {
		_, err := Map(workers, n, func(i int) (int, error) { return i, fn(i) })
		return err
	}},
	{"ForEachWorker", func(workers, n int, fn func(i int) error) error {
		return ForEachWorker(workers, n, func(_, i int) error { return fn(i) })
	}},
}

func TestMapErrorSmallestIndex(t *testing.T) {
	// Indices 7 and 23 both fail; every worker count must report 7.
	for _, fo := range fanOuts {
		for _, workers := range []int{1, 2, 8, 64} {
			err := fo.run(workers, 40, func(i int) error {
				if i == 7 || i == 23 {
					return fmt.Errorf("boom at %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "boom at 7" {
				t.Fatalf("%s workers=%d: err=%v", fo.name, workers, err)
			}
		}
	}
}

func TestMapErrorStopsDispatch(t *testing.T) {
	// After the failure at index 0, indices well beyond it must not all
	// run: the pool stops dispatching past the smallest failing index.
	for _, fo := range fanOuts {
		var ran atomic.Int64
		err := fo.run(2, 10_000, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return errors.New("early")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%s: error lost", fo.name)
		}
		if n := ran.Load(); n > 1000 {
			t.Fatalf("%s: %d trials ran after an index-0 failure", fo.name, n)
		}
	}
}

// TestForEachWorkerIndices holds as many tasks as workers in flight at
// once behind a barrier, so each runs on its own worker: their w must be
// distinct and in range, and worker 0 must be the caller's goroutine.
func TestForEachWorkerIndices(t *testing.T) {
	const workers = 4
	var arrived atomic.Int32
	all := make(chan struct{})
	ws := make([]int, workers)
	onCaller := make([]bool, workers)
	caller := goroutineID()
	err := ForEachWorker(workers, workers, func(w, i int) error {
		if arrived.Add(1) == workers {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("task %d: %d of %d tasks in flight", i, arrived.Load(), workers)
		}
		ws[i], onCaller[i] = w, goroutineID() == caller
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, workers)
	for i, w := range ws {
		if w < 0 || w >= workers || seen[w] {
			t.Fatalf("worker indices %v, want a permutation of [0, %d)", ws, workers)
		}
		seen[w] = true
		if (w == 0) != onCaller[i] {
			t.Fatalf("task %d ran as worker %d, on the caller's goroutine: %v", i, w, onCaller[i])
		}
	}
}

// goroutineID parses the running goroutine's id from its stack header,
// "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit count ignored")
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0)=%d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-5)=%d", got)
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for trial := 0; trial < 10_000; trial++ {
		s := TrialSeed(1, trial)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: trials %d and %d -> %d", prev, trial, s)
		}
		seen[s] = trial
	}
	// Different roots diverge too.
	if TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Fatal("root seed has no effect")
	}
	// Pure function of (seed, trial).
	if TrialSeed(42, 7) != TrialSeed(42, 7) {
		t.Fatal("TrialSeed not deterministic")
	}
}
