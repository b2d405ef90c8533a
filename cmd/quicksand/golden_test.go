package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"quicksand/internal/testkit"
)

// goldenNames are the steps pinned under results/golden/: the paper's
// experiments E1-E5 and figures F2L/F2R/F3L/F3R. The extension studies
// (E6-E9, ablation) are exercised by their own package tests.
var goldenNames = map[string]bool{
	"dataset": true, "fig2left": true, "fig2right": true,
	"fig3left": true, "fig3right": true,
	"anonymity": true, "hijack": true, "intercept": true, "defend": true,
}

// workerSteps are the steps that fan trials out over the -workers pool;
// their output must be bit-for-bit independent of the worker count.
var workerSteps = []string{"hijack", "intercept", "defend"}

var (
	goldenOnce sync.Once
	goldenApp  *app
	goldenOut  map[string][]byte
	goldenErr  error
)

// runGoldenSteps builds the small seed-1 world and stream once and
// renders every pinned step with workers=1.
func runGoldenSteps(t *testing.T) (*app, map[string][]byte) {
	t.Helper()
	goldenOnce.Do(func() {
		a := &app{scale: "small", seed: 1, workers: 1}
		if _, goldenErr = a.getStream(); goldenErr != nil { // builds the world too
			return
		}
		out := make(map[string][]byte)
		for _, s := range a.steps() {
			if !goldenNames[s.name] {
				continue
			}
			var buf bytes.Buffer
			if err := s.fn(&buf); err != nil {
				goldenErr = fmt.Errorf("%s: %w", s.name, err)
				return
			}
			out[s.name] = buf.Bytes()
		}
		goldenApp, goldenOut = a, out
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenApp, goldenOut
}

// TestGoldenSmallScale pins the seeded small-scale output of every
// E1-E5 / F2L-F3R step. Refresh after an intentional change with
//
//	go test ./cmd/quicksand -run Golden -update
func TestGoldenSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite builds the small world; skipped in -short")
	}
	a, out := runGoldenSteps(t)
	for _, s := range a.steps() {
		if !goldenNames[s.name] {
			continue
		}
		name := s.name
		t.Run(name, func(t *testing.T) {
			testkit.Golden(t, filepath.Join("..", "..", "results", "golden", name+".txt"), out[name])
		})
	}
}

// TestGoldenWorkerInvariance re-runs the pooled studies with different
// worker counts over the same world and stream and requires byte-equal
// output: per-trial RNG derivation, not scheduling, must decide results.
func TestGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite builds the small world; skipped in -short")
	}
	a1, out := runGoldenSteps(t)
	counts := []int{3, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		a2 := &app{scale: "small", seed: 1, workers: workers}
		// Adopt a1's substrate: burn each Once, then install the shared state.
		a2.worldOnce.Do(func() {})
		a2.strmOnce.Do(func() {})
		a2.world, a2.strm = a1.world, a1.strm
		for _, s := range a2.steps() {
			run := false
			for _, w := range workerSteps {
				if s.name == w {
					run = true
				}
			}
			if !run {
				continue
			}
			name, fn := s.name, s.fn
			t.Run(fmt.Sprintf("%s-workers%d", name, workers), func(t *testing.T) {
				var buf bytes.Buffer
				if err := fn(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), out[name]) {
					t.Errorf("%s output differs between workers=1 and workers=%d", name, workers)
				}
			})
		}
	}
}
