package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"quicksand"
	"quicksand/internal/bgpsim"
	"quicksand/internal/mrt"
)

// TestRunSmoke generates a small archive set and parses every file back
// through the MRT reader and the stream importer: the end-to-end
// generate → archive → import loop must be lossless enough to rebuild a
// stream with the same session count and a plausible update count.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	if err := run("small", 1, dir, 2, nil); err != nil {
		t.Fatalf("run: %v", err)
	}

	mcfg := quicksand.SmallMonthConfig()
	if len(mcfg.Collectors) == 0 {
		t.Fatal("small month config has no collectors")
	}
	for _, c := range mcfg.Collectors {
		ribPath := filepath.Join(dir, c.Name+".rib.mrt")
		updPath := filepath.Join(dir, c.Name+".updates.mrt")

		// Every record in both archives must decode.
		for _, path := range []string{ribPath, updPath} {
			f, err := os.Open(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			rd := mrt.NewReader(f)
			n := 0
			for {
				_, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: record %d: %v", path, n, err)
				}
				n++
			}
			f.Close()
			if n == 0 {
				t.Errorf("%s: empty archive", path)
			}
		}

		// And the pair must import back into a stream.
		rib, err := os.Open(ribPath)
		if err != nil {
			t.Fatal(err)
		}
		upd, err := os.Open(updPath)
		if err != nil {
			rib.Close()
			t.Fatal(err)
		}
		st, err := bgpsim.ImportMRT(rib, upd, c.Name)
		rib.Close()
		upd.Close()
		if err != nil {
			t.Fatalf("ImportMRT(%s): %v", c.Name, err)
		}
		if len(st.Sessions) != c.Sessions {
			t.Errorf("%s: imported %d sessions, want %d", c.Name, len(st.Sessions), c.Sessions)
		}
		if len(st.Updates) == 0 {
			t.Errorf("%s: imported no updates", c.Name)
		}
		for si := range st.Sessions {
			if len(st.Initial[si]) == 0 {
				t.Errorf("%s session %d: empty initial table", c.Name, si)
			}
		}
	}

	if err := run("bogus", 1, dir, 0, nil); err == nil {
		t.Error("run with unknown scale succeeded")
	}
}
