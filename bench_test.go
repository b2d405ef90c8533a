package quicksand

// Benchmarks for the artifacts bench/ does not time per layer. Each
// measures the full regeneration of its table or figure from the
// prebuilt world/stream, amortised in a sync.Once. World construction,
// the month simulation, E1, F3L, F3R and E3-E5 are BENCHMARK.json's
// quicksand.*, bgpsim.* and analysis.* metrics.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"quicksand/internal/analysis"
	"quicksand/internal/bgpsim"
	"quicksand/internal/tcpsim"
)

// benchWorkers makes the study benchmarks sensitive to `go test -cpu`:
// GOMAXPROCS is what -cpu sets, so `-cpu 1,4 -bench E8` reports the
// sequential and 4-worker timings side by side.
func benchWorkers() int { return runtime.GOMAXPROCS(0) }

var benchOnce sync.Once
var benchWorld *World
var benchStream *bgpsim.Stream

func benchSetup(b *testing.B) (*World, *bgpsim.Stream) {
	b.Helper()
	benchOnce.Do(func() {
		w, err := BuildWorld(SmallWorldConfig())
		if err != nil {
			b.Fatal(err)
		}
		st, err := w.SimulateMonth(SmallMonthConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchWorld, benchStream = w, st
	})
	if benchWorld == nil {
		b.Fatal("bench setup failed earlier")
	}
	return benchWorld, benchStream
}

// BenchmarkFig2Left regenerates the AS-concentration curve.
func BenchmarkFig2Left(b *testing.B) {
	w, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.RunFig2Left(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Right regenerates the four-segment byte series (a 2 MB
// download per iteration, captures parsed from raw headers).
func BenchmarkFig2Right(b *testing.B) {
	cfg := tcpsim.DefaultConfig()
	cfg.FileSize = 2 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFig2Right(cfg, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2AnonymityModel regenerates the §3.1 model table.
func BenchmarkE2AnonymityModel(b *testing.B) {
	fs := []float64{0.01, 0.02, 0.05, 0.10}
	xs := []int{1, 2, 4, 6, 10, 15, 20}
	for i := 0; i < b.N; i++ {
		if cells := RunAnonymityModel(fs, xs, 3); len(cells) == 0 {
			b.Fatal("empty model")
		}
	}
}

// BenchmarkE6Convergence computes the transient-observer exposure.
func BenchmarkE6Convergence(b *testing.B) {
	w, st := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunConvergence(st, 5*time.Minute, analysis.FilterHeuristic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8ROV sweeps route-origin-validation deployment levels.
func BenchmarkE8ROV(b *testing.B) {
	w, _ := benchSetup(b)
	cfg := DefaultROVStudyConfig()
	cfg.Attackers = 5
	cfg.Workers = benchWorkers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunROVStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9LiveDetection runs the in-stream attack detection study
// (simulates its own short attack-laden stream each iteration).
func BenchmarkE9LiveDetection(b *testing.B) {
	w, _ := benchSetup(b)
	cfg := DefaultLiveDetectionConfig()
	cfg.Attacks = 6
	cfg.Month.Duration = cfg.Month.Duration / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunLiveDetection(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Rotation runs the longitudinal guard-lifetime study.
func BenchmarkE7Rotation(b *testing.B) {
	w, _ := benchSetup(b)
	cfg := DefaultRotationStudyConfig()
	cfg.Clients = 100
	cfg.Months = 12
	cfg.Workers = benchWorkers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunRotationStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
