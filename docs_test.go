package quicksand

import (
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
)

// TestDocsCiteOnlyWhatExists fails on a doc that cites a repo path under
// one of the roots repoPathRE names that does not exist (in a code span
// or on a `go run`/`go test` line), or a Test, Fuzz, Benchmark or Example
// function that no _test.go declares.
func TestDocsCiteOnlyWhatExists(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
			prefix, wild := strings.CutSuffix(name, "*")
			found := declared[name]
			for d := range declared {
				found = found || wild && strings.HasPrefix(d, prefix)
			}
			if !found {
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
