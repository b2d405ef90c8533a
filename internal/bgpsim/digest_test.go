package bgpsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"
)

// streamDigest is the sha256 of the Updates, Resets and Attacks of one
// small simulation with resets and injected hijacks, pinned before the
// event loop was changed: an event added, dropped, reordered or drawn
// from a shifted random stream shows here.
const streamDigest = "1b1131f12f96c4695f0dade7b14088449599cbf3ac7dba55952e23e7a440e3ed"

func TestStreamDigest(t *testing.T) {
	if got := digestRun(t); got != streamDigest {
		t.Fatalf("stream digest = %s, want %s", got, streamDigest)
	}
}

// TestStreamDigestAcrossWorkers runs the month with its recomputes on one
// goroutine and fanned out to four: the stream must be the pinned one
// either way.
func TestStreamDigestAcrossWorkers(t *testing.T) {
	defer func(w int) { monthWorkers = w }(monthWorkers)
	for _, w := range []int{1, 4} {
		monthWorkers = w
		if got := digestRun(t); got != streamDigest {
			t.Errorf("%d workers: stream digest = %s, want %s", w, got, streamDigest)
		}
	}
}

// digestRun simulates the pinned month and returns its stream's digest.
func digestRun(t *testing.T) string {
	t.Helper()
	g, origins := testWorld(t)
	s, err := New(g, origins)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.InjectHijacks = 6
	cfg.HijackDuration = 2 * time.Hour
	st, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Updates) == 0 || len(st.Resets) == 0 || len(st.Attacks) == 0 {
		t.Fatalf("stream too thin to pin: %d updates, %d resets, %d attacks",
			len(st.Updates), len(st.Resets), len(st.Attacks))
	}
	h := sha256.New()
	for _, u := range st.Updates {
		putUint(h, uint64(u.Time.UnixNano()), uint64(u.Session), uint64(len(u.Path)))
		h.Write([]byte(u.Prefix.String()))
		for _, a := range u.Path {
			putUint(h, uint64(a))
		}
		if u.Transfer {
			putUint(h, 1)
		} else {
			putUint(h, 0)
		}
	}
	for _, r := range st.Resets {
		putUint(h, uint64(r.Session), uint64(r.Down.UnixNano()), uint64(r.Up.UnixNano()))
	}
	for _, a := range st.Attacks {
		h.Write([]byte(a.Prefix.String()))
		putUint(h, uint64(a.Victim), uint64(a.Attacker), uint64(a.Start.UnixNano()), uint64(a.End.UnixNano()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putUint(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}
