package main

import (
	"bufio"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"quicksand/internal/torconsensus"
)

// TestRunSmoke generates a small consensus + prefix table and parses
// both back: the dir-spec document must round-trip through the parser
// and every prefix line must be a valid "prefix origin-AS" pair.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	consPath := filepath.Join(dir, "consensus.txt")
	prefPath := filepath.Join(dir, "prefixes.txt")
	if err := run("small", 1, consPath, prefPath, nil); err != nil {
		t.Fatalf("run: %v", err)
	}

	f, err := os.Open(consPath)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := torconsensus.Parse(f)
	f.Close()
	if err != nil {
		t.Fatalf("parsing generated consensus: %v", err)
	}
	if len(cons.Relays) == 0 {
		t.Fatal("generated consensus has no relays")
	}
	guards, exits := 0, 0
	for _, r := range cons.Relays {
		if r.HasFlag(torconsensus.FlagGuard) {
			guards++
		}
		if r.HasFlag(torconsensus.FlagExit) {
			exits++
		}
	}
	if guards == 0 || exits == 0 {
		t.Errorf("consensus has %d guards / %d exits, want both > 0", guards, exits)
	}

	pf, err := os.Open(prefPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	sc := bufio.NewScanner(pf)
	lines := 0
	var prev netip.Prefix
	for sc.Scan() {
		lines++
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("prefix line %d: %q", lines, sc.Text())
		}
		p, err := netip.ParsePrefix(fields[0])
		if err != nil {
			t.Fatalf("prefix line %d: %v", lines, err)
		}
		if _, err := strconv.ParseUint(fields[1], 10, 32); err != nil {
			t.Fatalf("prefix line %d: origin %q: %v", lines, fields[1], err)
		}
		if lines > 1 && p.Addr().Less(prev.Addr()) {
			t.Errorf("prefix table not sorted at line %d: %v after %v", lines, p, prev)
		}
		prev = p
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("prefix table is empty")
	}

	if err := run("bogus", 1, consPath, prefPath, nil); err == nil {
		t.Error("run with unknown scale succeeded")
	}
	for _, paths := range [][2]string{{dir, prefPath}, {consPath, dir}} {
		if err := run("small", 1, paths[0], paths[1], nil); err == nil {
			t.Errorf("run writing to the directory %s succeeded", dir)
		}
	}
}
