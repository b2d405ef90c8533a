package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's exposition type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). All methods are safe for concurrent
// use; handle operations (Counter.Add etc.) are lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric family: a fixed label-name schema and a set
// of series, or an exposition-time Collect callback.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string // label names, declaration order

	mu      sync.Mutex
	series  map[string]any // labelKey -> *Counter | *Gauge | *Histogram
	buckets []float64      // histogram families only
	collect func(emit Emit)
}

// Emit receives one sampled series during collection: labelValues must
// match the family's label-name count.
type Emit func(labelValues []string, value float64)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family, creating it on first use and enforcing that
// re-registrations agree on help, kind, and label schema.
func (r *Registry) lookup(name, help string, kind Kind, labels []string) *family {
	if err := checkMetricName(name); err != nil {
		panic("obs: " + err.Error())
	}
	for _, l := range labels {
		if err := checkLabelName(l); err != nil {
			panic("obs: " + err.Error())
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...), series: make(map[string]any)}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterVec(name, help).With()
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, KindCounter, labelNames)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, KindGauge, labelNames)}
}

// Histogram registers an unlabeled fixed-bucket histogram. Buckets are
// upper bounds in increasing order; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not increasing", name))
		}
	}
	f := r.lookup(name, help, KindHistogram, labelNames)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = append([]float64(nil), buckets...)
	}
	f.mu.Unlock()
	return &HistogramVec{f: f}
}

// Collect registers an exposition-time sampled family: fn runs on every
// WritePrometheus call and emits the family's current series. Use it for
// values that need structure traversal (queue depths, table sizes,
// uptime) instead of maintaining them inline on hot paths.
func (r *Registry) Collect(name, help string, kind Kind, labelNames []string, fn func(emit Emit)) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, kind, labelNames)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// GaugeFunc registers an unlabeled exposition-time sampled gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.Collect(name, help, KindGauge, nil, func(emit Emit) { emit(nil, fn()) })
}

// DefBuckets are general-purpose latency buckets in seconds.
var DefBuckets = []float64{0.000001, 0.00001, 0.0001, 0.001, 0.01, 0.1, 0.5, 1, 5, 30}

// --- handles ---

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Returns nil on a nil vec.
func (cv *CounterVec) With(labelValues ...string) *Counter {
	if cv == nil {
		return nil
	}
	v, _ := cv.f.seriesFor(labelValues, func() any { return &Counter{} })
	return v.(*Counter)
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop). No-op on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on
// first use. Returns nil on a nil vec.
func (gv *GaugeVec) With(labelValues ...string) *Gauge {
	if gv == nil {
		return nil
	}
	v, _ := gv.f.seriesFor(labelValues, func() any { return &Gauge{} })
	return v.(*Gauge)
}

// Histogram is a fixed-bucket histogram: cumulative bucket counts plus
// sum and count, exposed in the standard Prometheus shape.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative); +Inf is the last
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	n      atomic.Uint64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use. Returns nil on a nil vec.
func (hv *HistogramVec) With(labelValues ...string) *Histogram {
	if hv == nil {
		return nil
	}
	v, _ := hv.f.seriesFor(labelValues, func() any {
		return &Histogram{bounds: hv.f.buckets, counts: make([]atomic.Uint64, len(hv.f.buckets)+1)}
	})
	return v.(*Histogram)
}

// seriesFor returns the series for the label values, creating it with
// mk on first use.
func (f *family) seriesFor(labelValues []string, mk func() any) (any, string) {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := labelKey(f.labels, labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s, key
	}
	s := mk()
	f.series[key] = s
	return s, key
}

// labelKey renders {a="x",b="y"} (or "" when unlabeled) with escaped
// values — the exact exposition form, reused as the series map key.
func labelKey(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, r := range name {
		if r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9') {
			continue
		}
		return fmt.Errorf("invalid metric name %q", name)
	}
	return nil
}

func checkLabelName(name string) error {
	if name == "" || strings.HasPrefix(name, "__") {
		return fmt.Errorf("invalid label name %q", name)
	}
	for i, r := range name {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9') {
			continue
		}
		return fmt.Errorf("invalid label name %q", name)
	}
	return nil
}

// formatValue renders a sample value: integers without a decimal point
// (counters stay %d-shaped), floats in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in sorted name order, series in
// sorted label order, with HELP and TYPE headers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// row is one rendered sample: suffixed name + label block + value.
type row struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string
	value  string
}

func (f *family) write(w io.Writer) error {
	var rows []row
	f.mu.Lock()
	switch {
	case f.collect != nil:
		f.collect(func(labelValues []string, value float64) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("obs: collector for %q emitted %d label values, want %d",
					f.name, len(labelValues), len(f.labels)))
			}
			rows = append(rows, row{labels: labelKey(f.labels, labelValues), value: formatValue(value)})
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })
	default:
		// Sort series by label key, then render each series' rows in
		// generation order — histogram le buckets must stay in bound
		// order, which a lexical sort of the rendered rows would break.
		keys := make([]string, 0, len(f.series))
		for key := range f.series {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			rows = append(rows, seriesRows(key, f.series[key], f.buckets)...)
		}
	}
	f.mu.Unlock()
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, r.suffix, r.labels, r.value); err != nil {
			return err
		}
	}
	return nil
}

// seriesRows renders one series' samples. Histogram label blocks splice
// the le label after the series labels.
func seriesRows(key string, s any, buckets []float64) []row {
	switch m := s.(type) {
	case *Counter:
		return []row{{labels: key, value: strconv.FormatUint(m.Value(), 10)}}
	case *Gauge:
		return []row{{labels: key, value: formatValue(m.Value())}}
	case *Histogram:
		rows := make([]row, 0, len(buckets)+3)
		cum := uint64(0)
		for i, b := range buckets {
			cum += m.counts[i].Load()
			rows = append(rows, row{suffix: "_bucket",
				labels: spliceLabel(key, "le", strconv.FormatFloat(b, 'g', -1, 64)),
				value:  strconv.FormatUint(cum, 10)})
		}
		cum += m.counts[len(buckets)].Load()
		rows = append(rows, row{suffix: "_bucket", labels: spliceLabel(key, "le", "+Inf"),
			value: strconv.FormatUint(cum, 10)})
		rows = append(rows, row{suffix: "_sum", labels: key, value: formatValue(m.Sum())})
		// _count is rendered from the +Inf cumulative value, not n: under
		// concurrent Observe calls n can run ahead of the bucket loads
		// above, and a scrape must never show _count != the +Inf bucket.
		rows = append(rows, row{suffix: "_count", labels: key, value: strconv.FormatUint(cum, 10)})
		return rows
	}
	return nil
}

// spliceLabel appends name="value" to a rendered label block.
func spliceLabel(key, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if key == "" {
		return "{" + pair + "}"
	}
	return key[:len(key)-1] + "," + pair + "}"
}
