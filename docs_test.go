package quicksand

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents that describe the tree as it is. The
// history files (CHANGES.md, ROADMAP.md), PAPER.md and bench/README.md
// are not checked.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpanRE  = regexp.MustCompile("`([^`]+)`")
	repoPathRE  = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples|results|bench)/[\w.*/-]*)`)
	testNameRE  = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_]\w*\*?`)
	testDeclRE  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	goRunTestRE = regexp.MustCompile(`\bgo (?:run|test)\b`)
	goIdentRE   = regexp.MustCompile(`\.[A-Z]\w*`) // internal/testkit.CheckX names a package
	metricRE    = regexp.MustCompile(`(?:^|[^\w./-])([a-z]+)\.([a-z][a-z0-9_]*\*?)`)
)

// exists reports whether name, or with a trailing * some prefix of it,
// is in have.
func exists(name string, have map[string]bool) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	found := have[name]
	for h := range have {
		found = found || wild && strings.HasPrefix(h, prefix)
	}
	return found
}

// TestDocsCiteOnlyWhatExists fails on a doc that cites a repo path under
// one of the roots repoPathRE names that does not exist (in a code span
// or on a `go run`/`go test` line), a Test, Fuzz, Benchmark or Example
// function that no _test.go declares, or, in a code span, a metric
// <layer>.<name> of one of BENCHMARK.json's per-layer layers that
// BENCHMARK.json does not list.
func TestDocsCiteOnlyWhatExists(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	metrics, layers := map[string]bool{}, map[string]bool{}
	for _, m := range bench.PerLayer {
		metrics[m.Name] = true
		layer, _, _ := strings.Cut(m.Name, ".")
		layers[layer] = true
	}

	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDeclRE.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range citingDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, name := range testNameRE.FindAllString(text, -1) {
			if !exists(name, declared) {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}

		// Code spans, with fence lines dropped so ``` does not pair up,
		// and every go run/go test line, fenced or not.
		var cited, prose []string
		for _, line := range strings.Split(text, "\n") {
			if goRunTestRE.MatchString(line) {
				cited = append(cited, line)
			}
			if !strings.HasPrefix(strings.TrimSpace(line), "```") {
				prose = append(prose, line)
			}
		}
		for _, m := range codeSpanRE.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
			cited = append(cited, m[1])
			for _, mm := range metricRE.FindAllStringSubmatch(m[1], -1) {
				if name := mm[1] + "." + mm[2]; layers[mm[1]] && !exists(name, metrics) {
					t.Errorf("%s cites metric %s, which BENCHMARK.json does not list", doc, name)
				}
			}
		}
		for _, c := range cited {
			for _, m := range repoPathRE.FindAllStringSubmatch(c, -1) {
				path := strings.TrimRight(goIdentRE.ReplaceAllString(m[1], ""), "./")
				if matches, _ := filepath.Glob(path); len(matches) == 0 {
					t.Errorf("%s cites %s, which does not exist", doc, m[1])
				}
			}
		}
	}
}
