// Command bench is the repository's benchmark: seven workloads that
// drive the real `quicksand serve` binary over loopback BGP and HTTP, or
// call the study and route engines in process, and print the metrics
// BENCHMARK.json names. See README.md for what each number means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the contract every printed name is checked
// against.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specItem   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specItem struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot returns the checkout root: the directory holding
// BENCHMARK.json, which is the working directory under run.sh and its
// parent under `go run -C bench .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root or bench/")
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// envRecord is stamped on every output record and span file, so a number
// is never read without the box it came from.
type envRecord struct {
	Workload            string  `json:"workload"`
	Seed                int64   `json:"seed"`
	Seconds             float64 `json:"seconds"`
	Traced              bool    `json:"traced"`
	CPUModel            string  `json:"cpu_model"`
	NProc               int     `json:"nproc"`
	GeneratorGOMAXPROCS int     `json:"generator_gomaxprocs"`
	ChildGOMAXPROCS     int     `json:"child_gomaxprocs"`
	GoVersion           string  `json:"go_version"`
	Commit              string  `json:"commit"`
	FleetWidth          int     `json:"fleet_width"`
	IdleSpinners        int     `json:"idle_spinners"`
	Transport           string  `json:"transport"`
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// fleetWidth is the shard count of the fleet workloads.
func fleetWidth() int { return min(runtime.NumCPU(), 4) }

// outcome is what one workload run measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	// failures lists every output check that did not hold; any entry
	// makes the run incorrect and the command exit non-zero.
	failures []string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// runCtx carries one invocation's settings into a workload.
type runCtx struct {
	root     string
	buildDir string
	spec     *spec
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil when untraced
	logw     io.Writer
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.logw, "bench: "+format+"\n", args...)
}

// workload is one entry of BENCHMARK.json's workloads: how it runs and
// how its traffic travels.
type workload struct {
	run       func(rc *runCtx) (*outcome, error)
	transport string
}

const (
	loopback  = "loopback TCP and HTTP to a child process; never a real link"
	inProcess = "none: in-process calls"
)

var workloads = map[string]workload{
	"serve-steady":   {func(rc *runCtx) (*outcome, error) { return runLoad(rc, 0, steadyRate) }, loopback},
	"fleet-steady":   {func(rc *runCtx) (*outcome, error) { return runLoad(rc, fleetWidth(), steadyRate) }, loopback},
	"serve-saturate": {func(rc *runCtx) (*outcome, error) { return runLoad(rc, 0, 0) }, loopback},
	"fleet-saturate": {func(rc *runCtx) (*outcome, error) { return runLoad(rc, fleetWidth(), 0) }, loopback},
	"replay-attacks": {runReplay, loopback},
	"study":          {runStudy, inProcess},
	"routes-73k":     {runRoutes, inProcess},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload and prints its records: the environment, a
// name/value/unit table, and the result line last.
func runOne(rc *runCtx, name string, traced bool, out io.Writer) (*resultLine, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	env := envRecord{
		Workload: name, Seed: rc.seed, Seconds: rc.seconds.Seconds(), Traced: traced,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(),
		GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0), ChildGOMAXPROCS: childGOMAXPROCS(),
		GoVersion: runtime.Version(), Commit: gitCommit(rc.root),
		FleetWidth: fleetWidth(), Transport: wl.transport,
	}
	rc.tr = nil
	if traced {
		rc.tr = newTracer()
	}
	var stopSpinners func()
	env.IdleSpinners, stopSpinners = startSpinners()
	res, err := wl.run(rc)
	stopSpinners()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	envJSON, _ := json.Marshal(map[string]envRecord{"env": env})
	fmt.Fprintf(out, "%s\n", envJSON)
	fmt.Fprintf(out, "# %s transport: %s\n", name, wl.transport)

	set, values := rc.spec.EndToEnd, res.e2e
	if traced {
		set, values = rc.spec.PerLayer, res.layer
		path := filepath.Join(rc.buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", name, rc.seed))
		if err := rc.tr.write(path, env); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans: %d written to %s\n", len(rc.tr.spans), path)
		rc.tr.printSummary(out)
	}
	line := &resultLine{
		Correct: len(res.failures) == 0, Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		v, ok := values[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s did not measure end-to-end metric %s", name, m.Name)
		}
		// A per-layer metric the workload does not exercise reads 0.
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(out, "%-44s %16.6g %s\n", m.Name, v, m.Unit)
	}
	for name := range values {
		if _, ok := line.Metrics[name]; !ok {
			return nil, fmt.Errorf("measured metric %s is not in BENCHMARK.json", name)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", f)
	}
	if !line.Correct && line.Failed == 0 {
		line.Failed = int64(len(res.failures))
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", raw)
	return line, nil
}

// selfcheck applies the driver's acceptance rule to this box: two sets of
// untraced runs of the same code, interleaved so that drift falls on both
// alike, whose medians must agree within each metric's bound.
func selfcheck(rc *runCtx, names []string, out io.Writer) bool {
	const perSet = 3
	ok := true
	for _, name := range names {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = make(map[string][]float64)
		}
		for i := 0; i < 2*perSet; i++ {
			line, err := runOne(rc, name, false, io.Discard)
			if err != nil {
				fmt.Fprintf(out, "selfcheck %s: %v\n", name, err)
				return false
			}
			if !line.Correct {
				fmt.Fprintf(out, "selfcheck %s: run %d failed its output checks\n", name, i+1)
				ok = false
			}
			for metric, v := range line.Metrics {
				sets[i%2][metric] = append(sets[i%2][metric], v.Value)
			}
		}
		for _, m := range rc.spec.EndToEnd {
			a, b := pct(sets[0][m.Name], 50), pct(sets[1][m.Name], 50)
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if diff > m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(out, "%-16s %-18s %14.6g %14.6g  diff %5.1f%%  bound %4.0f%%  %s\n",
				name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	return ok
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name from BENCHMARK.json, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced pass printing the per-layer metrics and writing the span file")
	check := fs.Bool("selfcheck", false, "run two interleaved sets of three untraced runs and compare their medians within the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rc := &runCtx{
		root: root, buildDir: filepath.Join(root, ".bench_build"), spec: sp,
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), logw: stderr,
	}
	var names []string
	if *workload == "all" {
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	} else {
		names = []string{*workload}
	}
	if *check {
		if !selfcheck(rc, names, stdout) {
			return 1
		}
		return 0
	}
	code := 0
	for _, name := range names {
		line, err := runOne(rc, name, *trace != 0, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !line.Correct {
			code = 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
