package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one tracer
// hijack or one batch pass share a Trace; Parent is the ID of the span
// that caused this one (0 for a root). Times are nanoseconds since the
// tracer was created.
type span struct {
	Trace  string           `json:"trace"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: add does nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID for children to name as their
// parent; end closes it.
func (t *tracer) begin(trace string, parent int, name string, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: at, End: at})
	return len(t.spans)
}

func (t *tracer) end(id int, end time.Time, counts map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.spans[id-1].Counts = counts
}

// add records a finished span.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time, counts map[string]int64) int {
	id := t.begin(trace, parent, name, start)
	t.end(id, end, counts)
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(trace string, parent int, name string, fn func() error) error {
	id := t.begin(trace, parent, name, time.Now())
	err := fn()
	t.end(id, time.Now(), nil)
	return err
}

// write stores the environment record and every span as JSONL.
func (t *tracer) write(path string, env envRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]envRecord{"env": env})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (children may overlap each other and are clipped to the
// parent).
func (t *tracer) selfTimes() []int64 {
	children := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, edge), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// printSummary prints count, total and self time per span name.
func (t *tracer) printSummary(out io.Writer) {
	type agg struct {
		n           int
		total, self int64
	}
	byName := make(map[string]*agg)
	self := t.selfTimes()
	for i, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += self[i]
	}
	for _, name := range sortedKeys(byName) {
		a := byName[name]
		fmt.Fprintf(out, "# span %-22s n=%-6d total %10.3f ms  self %10.3f ms\n",
			name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
