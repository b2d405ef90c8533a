package par

import (
	"slices"
	"sync"
	"testing"
	"time"

	"quicksand/internal/obs"
)

func TestObserverCountsAndProgress(t *testing.T) {
	ob := &Observer{}
	var mu sync.Mutex
	var seenDone []int
	lastTotal := 0
	ob.Progress = func(done, total int, elapsed time.Duration) {
		mu.Lock()
		seenDone = append(seenDone, done)
		lastTotal = total
		mu.Unlock()
	}
	SetObserver(ob)
	defer SetObserver(nil)

	got, err := Map(4, 10, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, instrumentation perturbed results", i, v)
		}
	}
	if len(seenDone) != 10 || lastTotal != 10 {
		t.Errorf("progress calls = %d (total %d), want 10", len(seenDone), lastTotal)
	}
	// Every done value in 1..10 must appear exactly once.
	seen := make(map[int]bool)
	for _, d := range seenDone {
		if d < 1 || d > 10 || seen[d] {
			t.Fatalf("bad progress sequence %v", seenDone)
		}
		seen[d] = true
	}
}

func TestObserverSequentialPath(t *testing.T) {
	var calls []int
	SetObserver(&Observer{Progress: func(done, total int, _ time.Duration) { calls = append(calls, done, total) }})
	defer SetObserver(nil)
	if _, err := Map(1, 3, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 2, 3, 3, 3}; !slices.Equal(calls, want) {
		t.Errorf("progress (done, total) pairs = %v, want %v", calls, want)
	}
}

func TestObserverDeterminismAcrossWorkers(t *testing.T) {
	SetObserver(&Observer{Trace: obs.NewTracer(nil), Progress: func(int, int, time.Duration) {}})
	defer SetObserver(nil)
	run := func(workers int) []int64 {
		out, err := Map(workers, 32, func(i int) (int64, error) {
			return TrialSeed(42, i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par8 := run(1), run(8)
	for i := range seq {
		if seq[i] != par8[i] {
			t.Fatalf("trial %d: %d != %d across worker counts", i, seq[i], par8[i])
		}
	}
}

func TestObserverTrialSpans(t *testing.T) {
	tr := obs.NewTracer(nil) // summary-only
	SetObserver(&Observer{Trace: tr})
	defer SetObserver(nil)
	if _, err := Map(2, 7, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	if len(sum) != 1 || sum[0].Name != "trial" || sum[0].Count != 7 {
		t.Fatalf("span summary = %+v, want 7 'trial' spans", sum)
	}
}
