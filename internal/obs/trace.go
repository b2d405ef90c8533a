package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans. Ended spans are written as one JSON
// line each (when the tracer has a writer) and folded into an in-memory
// per-name summary of wall time, so a run can both ship a full trace
// file and print a compact per-phase breakdown.
//
// A nil *Tracer (and the nil *Span it hands out) is the disabled state:
// every method no-ops, so instrumentation points need no conditionals.
type Tracer struct {
	nextID atomic.Uint64

	mu      sync.Mutex
	w       io.Writer // nil = summary only
	stats   map[string]*SpanStat
	attrs   []Attr // stamped on every record (run ID etc.)
	writeEr error
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{k, v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{k, v} }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{k, v} }

// NewTracer returns a tracer writing span records to w as JSONL; w may
// be nil for a summary-only tracer. attrs are stamped on every record.
func NewTracer(w io.Writer, attrs ...Attr) *Tracer {
	return &Tracer{w: w, stats: make(map[string]*SpanStat), attrs: attrs}
}

// OpenTrace is a batch binary's -trace FILE. An empty path is tracing
// off: a nil tracer and a done that does nothing. Otherwise every ended
// span is written to path as one JSON line stamped with attrs, and done,
// called once when the run ends, prints the per-phase summary to summary
// and returns the first span-write or close error.
func OpenTrace(path string, summary io.Writer, attrs ...Attr) (t *Tracer, done func() error, err error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("-trace: %w", err)
	}
	t = NewTracer(f, attrs...)
	return t, func() error {
		t.WriteSummary(summary)
		err := t.Err()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// Span is one in-flight span. End it exactly once.
type Span struct {
	t     *Tracer
	id    uint64
	name  string
	start time.Time
	attrs []Attr
	ended atomic.Bool
}

// Start opens a span. Returns nil on a nil tracer.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, id: t.nextID.Add(1), name: name, start: time.Now(), attrs: attrs}
}

// record is the JSONL wire shape of one ended span.
type record struct {
	Span  uint64         `json:"span"`
	Name  string         `json:"name"`
	Start time.Time      `json:"start"`
	DurUS int64          `json:"dur_us"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// End closes the span, emitting its trace record and folding its wall
// time into the tracer summary. Safe on a nil span; repeated Ends no-op.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	st, ok := t.stats[s.name]
	if !ok {
		st = &SpanStat{Name: s.name, Min: dur, Max: dur}
		t.stats[s.name] = st
	}
	st.Count++
	st.Total += dur
	if dur < st.Min {
		st.Min = dur
	}
	if dur > st.Max {
		st.Max = dur
	}
	if t.w != nil {
		rec := record{Span: s.id, Name: s.name, Start: s.start.UTC(), DurUS: dur.Microseconds()}
		if n := len(t.attrs) + len(s.attrs); n > 0 {
			rec.Attrs = make(map[string]any, n)
			for _, a := range t.attrs {
				rec.Attrs[a.Key] = a.Value
			}
			for _, a := range s.attrs {
				rec.Attrs[a.Key] = a.Value
			}
		}
		b, err := json.Marshal(rec)
		if err == nil {
			b = append(b, '\n')
			_, err = t.w.Write(b)
		}
		if err != nil && t.writeEr == nil {
			t.writeEr = err
		}
	}
	t.mu.Unlock()
}

// Err returns the first trace-write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writeEr
}

// SpanStat aggregates every ended span of one name.
type SpanStat struct {
	Name  string
	Count int
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Summary returns per-name span statistics, largest total wall time
// first (ties broken by name).
func (t *Tracer) Summary() []SpanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanStat, 0, len(t.stats))
	for _, st := range t.stats {
		out = append(out, *st)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteSummary renders the per-phase wall-time table.
func (t *Tracer) WriteSummary(w io.Writer) {
	stats := t.Summary()
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "# span summary (%d phases)\n", len(stats))
	fmt.Fprintf(w, "# %-28s %8s %12s %12s %12s %12s\n", "phase", "count", "total", "mean", "min", "max")
	for _, st := range stats {
		mean := st.Total / time.Duration(st.Count)
		fmt.Fprintf(w, "# %-28s %8d %12s %12s %12s %12s\n",
			st.Name, st.Count, round(st.Total), round(mean), round(st.Min), round(st.Max))
	}
}

func round(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}
