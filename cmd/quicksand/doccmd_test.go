package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A fenced line runs quicksand when it starts with one of docCommand or
// with a binary the same document built with docBuildRE's command.
var (
	docBuildRE = regexp.MustCompile(`^go build -o (\S+) \./cmd/quicksand$`)
	docCommand = []string{"quicksand", "go run ./cmd/quicksand"}
)

// TestDocCommandsParse holds every fenced quicksand command line of the
// documents that describe the tree to the flag set that would parse it:
// serve's or the experiments' (which must then name one experiment). A
// doc that passes a deleted or misspelled flag fails here.
func TestDocCommandsParse(t *testing.T) {
	experiments := map[string]bool{"all": true}
	for _, s := range (&app{}).steps() {
		experiments[s.name] = true
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		commands := append([]string(nil), docCommand...)
		fenced, pending := false, ""
		for n, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced, pending = !fenced, ""
				continue
			}
			if !fenced {
				continue
			}
			if before, _, ok := strings.Cut(line, " #"); ok {
				line = before
			}
			line = pending + strings.TrimSpace(line)
			if cont, ok := strings.CutSuffix(line, `\`); ok {
				pending = cont
				continue
			}
			pending = ""
			line = strings.TrimSpace(strings.TrimSuffix(line, "&"))
			if m := docBuildRE.FindStringSubmatch(line); m != nil {
				commands = append(commands, m[1])
				continue
			}
			for _, cmd := range commands {
				if rest, ok := strings.CutPrefix(line, cmd+" "); ok {
					checked++
					if err := parseDocCommand(strings.Fields(rest), experiments); err != nil {
						t.Errorf("%s:%d: %q: %v", doc, n+1, line, err)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no fenced quicksand command found")
	}
}

// parseDocCommand parses args as main would dispatch them: serve takes
// its own flags and no argument, an experiment run its flags and one
// experiment name.
func parseDocCommand(args []string, experiments map[string]bool) error {
	fs := flag.NewFlagSet("quicksand", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	positional := 1
	if len(args) > 0 && args[0] == "serve" {
		serveFlags(fs)
		args, positional = args[1:], 0
	} else {
		experimentFlags(fs)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != positional || positional == 1 && !experiments[fs.Arg(0)] {
		return fmt.Errorf("arguments %q after the flags", fs.Args())
	}
	return nil
}
