package obs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTracerJSONLAndSummary(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(&buf, String("run", "abcd1234"))
	root := tr.Start("experiment", String("experiment", "hijack"))
	child := tr.Start("trial", Int("trial", 0), Int("captured", 25))
	child.End()
	child.End() // double End must no-op
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["name"] != "trial" {
		t.Errorf("first ended span = %v, want trial", first["name"])
	}
	if first["span"] != float64(2) {
		t.Errorf("trial span id = %v, want 2", first["span"])
	}
	attrs, _ := first["attrs"].(map[string]any)
	if attrs["run"] != "abcd1234" || attrs["trial"] != float64(0) || attrs["captured"] != float64(25) {
		t.Errorf("trial attrs = %v", attrs)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	stats := tr.Summary()
	if len(stats) != 2 {
		t.Fatalf("summary has %d phases, want 2", len(stats))
	}
	// The first span encloses the second, so it sorts first by total.
	if stats[0].Name != "experiment" || stats[1].Name != "trial" {
		t.Errorf("summary order = %s, %s", stats[0].Name, stats[1].Name)
	}
	if stats[0].Count != 1 || stats[0].Total <= 0 || stats[0].Min > stats[0].Max {
		t.Errorf("bad stat: %+v", stats[0])
	}

	var table strings.Builder
	tr.WriteSummary(&table)
	if !strings.Contains(table.String(), "span summary (2 phases)") ||
		!strings.Contains(table.String(), "experiment") {
		t.Errorf("summary table:\n%s", table.String())
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.End()
	if tr.Err() != nil || tr.Summary() != nil {
		t.Fatal("nil tracer has state")
	}
	tr.WriteSummary(&strings.Builder{}) // must not panic
}

func TestTracerSummaryOnly(t *testing.T) {
	tr := NewTracer(nil)
	tr.Start("phase").End()
	if got := tr.Summary(); len(got) != 1 || got[0].Name != "phase" {
		t.Fatalf("summary = %+v", got)
	}
	if tr.Err() != nil {
		t.Fatal("summary-only tracer reported a write error")
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestTracerWriteError(t *testing.T) {
	sentinel := errors.New("disk full")
	tr := NewTracer(failWriter{sentinel})
	tr.Start("a").End()
	tr.Start("b").End()
	if !errors.Is(tr.Err(), sentinel) {
		t.Fatalf("Err() = %v, want %v", tr.Err(), sentinel)
	}
}

// TestOpenTrace covers -trace FILE: off without a path, one JSONL record
// per span stamped with the run attrs plus the summary at done, and an
// error for a path that cannot be created.
func TestOpenTrace(t *testing.T) {
	tr, done, err := OpenTrace("", nil)
	if tr != nil || err != nil || done() != nil {
		t.Fatalf("OpenTrace(\"\") = %v, %v; want tracing off", tr, err)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var summary strings.Builder
	tr, done, err = OpenTrace(path, &summary, String("run", "abcd1234"))
	if err != nil {
		t.Fatal(err)
	}
	tr.Start("phase").End()
	if err := done(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Name  string
		Attrs map[string]any
	}
	if err := json.Unmarshal(data, &rec); err != nil || rec.Name != "phase" || rec.Attrs["run"] != "abcd1234" {
		t.Errorf("trace file = %s (%v), want one phase record stamped run=abcd1234", data, err)
	}
	if !strings.Contains(summary.String(), "span summary (1 phases)") {
		t.Errorf("summary:\n%s", summary.String())
	}

	if _, _, err := OpenTrace(filepath.Join(t.TempDir(), "missing", "t.jsonl"), nil); err == nil {
		t.Error("an uncreatable trace path did not fail")
	}
}

func TestRound(t *testing.T) {
	for d, want := range map[time.Duration]string{
		1500 * time.Millisecond:   "1.5s",
		1234567 * time.Nanosecond: "1.235ms",
		999 * time.Nanosecond:     "999ns",
	} {
		if got := round(d); got != want {
			t.Errorf("round(%v) = %q, want %q", d, got, want)
		}
	}
}
