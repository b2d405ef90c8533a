package quicksand

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/stats"
)

func TestSampleDistinctASNs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []bgp.ASN{10, 20, 30, 40, 50, 60, 70}
	for trial := 0; trial < 200; trial++ {
		got := sampleDistinctASNs(rng, pool, 5)
		if len(got) != 5 {
			t.Fatalf("got %d ASNs, want 5", len(got))
		}
		seen := make(map[bgp.ASN]bool)
		for _, a := range got {
			if seen[a] {
				t.Fatalf("duplicate ASN %v in sample %v", a, got)
			}
			seen[a] = true
		}
	}
	// n beyond the pool clamps rather than looping or duplicating.
	if got := sampleDistinctASNs(rng, pool, 99); len(got) != len(pool) {
		t.Fatalf("clamped sample has %d ASNs, want %d", len(got), len(pool))
	}
	if got := sampleDistinctASNs(rng, nil, 4); len(got) != 0 {
		t.Fatalf("empty pool yielded %v", got)
	}
}

func TestSampleAttacker(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := []bgp.ASN{1, 2}
	// Heavy collision pressure: half the draws hit the victim, yet every
	// call must return the other AS — no trial may be dropped.
	for trial := 0; trial < 500; trial++ {
		a, err := sampleAttacker(rng, pool, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a != 2 {
			t.Fatalf("sampleAttacker returned victim %v", a)
		}
	}
	if _, err := sampleAttacker(rng, []bgp.ASN{7}, 7); err == nil {
		t.Fatal("want error when the pool holds only the victim")
	}
	if _, err := sampleAttacker(rng, nil, 7); err == nil {
		t.Fatal("want error for an empty pool")
	}
}

// TestHijackStudyTrialCount pins the bugfix for the silent undercount:
// attacker==victim collisions used to `continue`, so the study reported
// fewer trials than Attackers x TopPrefixes. Every collision must now be
// resampled.
func TestHijackStudyTrialCount(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultHijackStudyConfig()
	cfg.Attackers = 12
	cfg.TopPrefixes = 3
	cfg.ClientASes = 30
	res, err := w.RunHijackStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Attackers * cfg.TopPrefixes; res.Trials != want {
		t.Fatalf("Trials = %d, want exactly %d", res.Trials, want)
	}
	if res.CaptureFraction.N != res.Trials {
		t.Fatalf("%d capture samples for %d trials", res.CaptureFraction.N, res.Trials)
	}
}

// TestHijackTrialsDrawFromTheirOwnSeeds pins the per-trial seed: trial i
// samples its attacker from TrialSeed(seed, i) alone, so how many client
// ASes the study drew from its own RNG first cannot move any capture.
// (A study RNG shared across trials only permutes the draws between
// worker counts, which the worker-invariance tests cannot see.)
func TestHijackTrialsDrawFromTheirOwnSeeds(t *testing.T) {
	w := smallWorld(t)
	var captures []stats.Summary
	for _, clients := range []int{10, 60} {
		cfg := DefaultHijackStudyConfig()
		cfg.Attackers = 4
		cfg.TopPrefixes = 2
		cfg.ClientASes = clients
		cfg.Workers = 1
		res, err := w.RunHijackStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		captures = append(captures, res.CaptureFraction)
	}
	if captures[0] != captures[1] {
		t.Fatalf("capture with 10 client ASes %+v, with 60 %+v: the trials' attackers depend on the client draw",
			captures[0], captures[1])
	}
}

// workerCounts are the pool sizes every study must agree across. The
// studies cmd/quicksand pins as goldens (hijack, intercept, defend) are
// checked byte for byte there, by TestGoldenWorkerInvariance.
func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// checkDeterministic runs the study once per worker count and requires
// bit-for-bit identical results.
func checkDeterministic[T any](t *testing.T, name string, run func(workers int) (T, error)) {
	t.Helper()
	var base T
	for i, wk := range workerCounts() {
		res, err := run(wk)
		if err != nil {
			t.Fatalf("%s (workers=%d): %v", name, wk, err)
		}
		if i == 0 {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("%s: workers=%d result differs from workers=1:\n  %+v\nvs %+v", name, wk, res, base)
		}
	}
}

func TestRotationStudyDeterministicAcrossWorkers(t *testing.T) {
	w := smallWorld(t)
	checkDeterministic(t, "rotation", func(workers int) (*RotationStudyResult, error) {
		cfg := DefaultRotationStudyConfig()
		cfg.Clients = 40
		cfg.Months = 6
		cfg.Lifetimes = []int{1, 3}
		cfg.EvolveMonthly = true
		cfg.Workers = workers
		return w.RunRotationStudy(cfg)
	})
}

func TestROVStudyDeterministicAcrossWorkers(t *testing.T) {
	w := smallWorld(t)
	checkDeterministic(t, "rov", func(workers int) (*ROVStudyResult, error) {
		cfg := DefaultROVStudyConfig()
		cfg.Attackers = 6
		cfg.Workers = workers
		return w.RunROVStudy(cfg)
	})
}
