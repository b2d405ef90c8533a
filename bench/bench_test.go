package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for one second, untraced and traced, and
// checks that what is printed is exactly what BENCHMARK.json promises:
// the same workload names, and on the result line every end-to-end (or
// per-layer) metric by name, each with its unit.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	setupReps, setupBudget = 1, 0
	if testing.Short() {
		powerLawSize = 2000
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, set := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range set {
			if !nameRE.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("metric %q (unit %q): bad name or no unit", m.Name, m.Unit)
			}
		}
	}

	for _, w := range sp.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		for _, mode := range []struct {
			flag string
			want []specMetric
		}{{"0", sp.EndToEnd}, {"1", sp.PerLayer}} {
			t.Run(w.Name+"/trace"+mode.flag, func(t *testing.T) {
				var out, errs bytes.Buffer
				if code := run([]string{"--workload", w.Name, "--seconds", "1", "--trace", mode.flag}, &out, &errs); code != 0 {
					t.Fatalf("exit code %d\n%s%s", code, out.String(), errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(mode.want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := line.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s printed with unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestSelfTimes pins the span arithmetic the traced summary prints: a
// span's self time excludes what its children cover, overlaps counted once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	msDur := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	at := func(ms int) time.Time { return tr.epoch.Add(msDur(ms)) }
	root := tr.add("x", 0, "root", at(0), at(100), nil)
	tr.add("x", root, "a", at(10), at(40), nil)
	tr.add("x", root, "b", at(30), at(60), nil)  // overlaps a by 10 ms
	tr.add("x", root, "c", at(90), at(120), nil) // runs 20 ms past the root
	self := tr.selfTimes()
	if got, want := self[0], msDur(100-50-10).Nanoseconds(); got != want {
		t.Errorf("root self time %d ns, want %d", got, want)
	}
}
