package obs

// /metrics scraping: ParseExposition is the repository's one parser of the
// Prometheus text format — testkit's linter and every test read
// expositions through it too — so it is strict: what it accepts, a
// Prometheus server accepts.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// ScrapedSample is one exposition sample line: the full sample name
// (including any _bucket/_sum/_count suffix), its labels, and the value.
type ScrapedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
	Line   int // 1-based line in the parsed exposition
}

// ScrapedFamily groups the samples of one metric family as scraped, in
// exposition order.
type ScrapedFamily struct {
	Name    string
	Help    string
	HasHelp bool   // a HELP line named the family
	Type    string // counter | gauge | histogram | summary | untyped; "" when no TYPE line
	Samples []ScrapedSample

	index map[string]int // sample name + label key -> Samples offset
}

// Snapshot is a parsed exposition: families in first-seen order, with
// name lookup.
type Snapshot struct {
	Families []*ScrapedFamily
	byName   map[string]*ScrapedFamily
}

// Family returns the named family, or nil when absent.
func (s *Snapshot) Family(name string) *ScrapedFamily {
	if s == nil {
		return nil
	}
	return s.byName[name]
}

func (s *Snapshot) family(name string) *ScrapedFamily {
	if f, ok := s.byName[name]; ok {
		return f
	}
	f := &ScrapedFamily{Name: name, index: make(map[string]int)}
	s.byName[name] = f
	s.Families = append(s.Families, f)
	return f
}

// Sum adds up every sample with the given full name whose labels
// include all pairs in match (nil matches everything), returning the
// total and how many samples matched.
func (s *Snapshot) Sum(sample string, match map[string]string) (float64, int) {
	if s == nil {
		return 0, 0
	}
	total, n := 0.0, 0
	for _, f := range s.Families {
		for i := range f.Samples {
			sm := &f.Samples[i]
			if sm.Name != sample || !labelsMatch(sm.Labels, match) {
				continue
			}
			total += sm.Value
			n++
		}
	}
	return total, n
}

// Quantile estimates quantile q (in [0, 1]) of the named histogram
// family from its scraped _bucket samples, summing across every series
// whose labels include all pairs in match (le excluded from matching).
// Summing cumulative buckets across series is sound because every
// instance registers the family with identical bounds.
func (s *Snapshot) Quantile(familyName string, q float64, match map[string]string) (float64, error) {
	fam := s.Family(familyName)
	if fam == nil {
		return 0, fmt.Errorf("obs: no scraped family %q", familyName)
	}
	byLe := make(map[float64]uint64)
	for _, sm := range fam.Samples {
		if sm.Name != familyName+"_bucket" {
			continue
		}
		le, ok := sm.Labels["le"]
		if !ok || !labelsMatchExcept(sm.Labels, match, "le") {
			continue
		}
		bound, err := parseLe(le)
		if err != nil {
			return 0, err
		}
		byLe[bound] += uint64(math.Round(sm.Value))
	}
	if len(byLe) == 0 {
		return 0, fmt.Errorf("obs: no %s_bucket samples match %v", familyName, match)
	}
	if _, ok := byLe[math.Inf(1)]; !ok {
		return 0, fmt.Errorf("obs: family %q has no le=\"+Inf\" bucket", familyName)
	}
	bounds := make([]float64, 0, len(byLe)-1)
	for b := range byLe {
		if !math.IsInf(b, 1) {
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	cum := make([]uint64, 0, len(bounds)+1)
	for _, b := range bounds {
		cum = append(cum, byLe[b])
	}
	cum = append(cum, byLe[math.Inf(1)])
	return QuantileFromCumulative(bounds, cum, q), nil
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad le bound %q: %v", s, err)
	}
	return v, nil
}

func labelsMatch(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

func labelsMatchExcept(labels, match map[string]string, except string) bool {
	for k, v := range match {
		if k == except {
			continue
		}
		if labels[k] != v {
			return false
		}
	}
	return true
}

// ParseExposition parses Prometheus text format 0.0.4, strictly. HELP
// and TYPE lines bind metadata to their family and TYPE must name a
// known type; other comment lines are skipped. A sample is a valid
// metric name, an optional label block (valid label names, none
// repeated, values quoted with \\ \" \n as the only escapes), a value and
// at most one integer timestamp; the same series twice is an error.
// _bucket/_sum/_count samples attach to the family their base names.
func ParseExposition(r io.Reader) (*Snapshot, error) {
	s := &Snapshot{byName: make(map[string]*ScrapedFamily)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var err error
		switch {
		case !utf8.ValidString(line):
			err = fmt.Errorf("invalid UTF-8")
		case line[0] == '#':
			err = s.parseComment(line)
		default:
			err = s.parseSample(line, ln)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %v", ln, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

var knownTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// parseComment binds a "# HELP name text" or "# TYPE name type" line to
// its family; any other comment is legal and ignored.
func (s *Snapshot) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil
	}
	if err := checkMetricName(fields[2]); err != nil {
		return err
	}
	rest := ""
	if len(fields) == 4 {
		rest = fields[3]
	}
	f := s.family(fields[2])
	if fields[1] == "HELP" {
		f.Help, f.HasHelp = unescapeHelp(rest), true
		return nil
	}
	if !knownTypes[rest] {
		return fmt.Errorf("family %s: unknown TYPE %q", f.Name, rest)
	}
	f.Type = rest
	return nil
}

// parseSample parses "name{labels} value [timestamp]" into its family.
func (s *Snapshot) parseSample(line string, ln int) error {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return fmt.Errorf("sample %q has no value", line)
	}
	sm := ScrapedSample{Name: line[:i], Line: ln}
	if err := checkMetricName(sm.Name); err != nil {
		return err
	}
	rest := line[i:]
	var err error
	if rest[0] == '{' {
		if sm.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return fmt.Errorf("sample %q: %v", line, err)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("sample %q: want value [timestamp] after name", line)
	}
	if sm.Value, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("sample %q: bad value: %v", line, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("sample %q: bad timestamp", line)
		}
	}
	if !s.family(s.familyFor(sm.Name)).addSample(sm) {
		return fmt.Errorf("duplicate series %s%s", sm.Name, labelKeyOf(sm.Labels))
	}
	return nil
}

// familyFor maps a sample name to its family: a family of that exact
// name wins; otherwise a _bucket/_sum/_count suffix folds into the
// family its base names, if one is known; otherwise the sample starts
// its own family.
func (s *Snapshot) familyFor(sample string) string {
	if _, ok := s.byName[sample]; ok {
		return sample
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suffix); ok {
			if _, known := s.byName[base]; known {
				return base
			}
		}
	}
	return sample
}

// addSample appends sm as a new series, or reports false when the family
// already has a series of that name and labels: inside one exposition a
// repeat is a defect.
func (f *ScrapedFamily) addSample(sm ScrapedSample) (added bool) {
	key := sm.Name + labelKeyOf(sm.Labels)
	if _, ok := f.index[key]; ok {
		return false
	}
	f.index[key] = len(f.Samples)
	f.Samples = append(f.Samples, sm)
	return true
}

// labelKeyOf renders labels as a canonical sorted {a="x",b="y"} key.
func labelKeyOf(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(labels))
	for n := range labels {
		names = append(names, n)
	}
	sort.Strings(names)
	values := make([]string, len(names))
	for i, n := range names {
		values[i] = labels[n]
	}
	return labelKey(names, values)
}

// parseLabels parses the inside of a label block — a="b",c="d"} with an
// optional trailing comma — returning the labels and the rest of the
// line after the closing brace.
func parseLabels(rest string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(rest[:eq])
		if err := checkLabelName(name); err != nil {
			return nil, "", err
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("label %s repeated", name)
		}
		val, tail, err := parseQuoted(rest[eq+1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %v", name, err)
		}
		labels[name] = val
		switch {
		case strings.HasPrefix(tail, ","):
			rest = tail[1:]
		case strings.HasPrefix(tail, "}"):
			return labels, tail[1:], nil
		default:
			return nil, "", fmt.Errorf("label %s: want ',' or '}' after its value", name)
		}
	}
}

// parseQuoted consumes a double-quoted label value starting at s[0] ==
// '"', returning the decoded value and the rest. \\, \" and \n are the
// only escapes.
func parseQuoted(s string) (string, string, error) {
	if s == "" || s[0] != '"' {
		return "", "", fmt.Errorf("unquoted value")
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			switch {
			case i == len(s):
				return "", "", fmt.Errorf("dangling escape")
			case s[i] == 'n':
				b.WriteByte('\n')
			case s[i] == '\\' || s[i] == '"':
				b.WriteByte(s[i])
			default:
				return "", "", fmt.Errorf("bad escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}

// unescapeHelp decodes HELP text: \\ is a backslash and \n a newline; a
// backslash before anything else stands for itself. One pass, so that
// the escaped backslash of `C:\\new` is not read as the start of a \n.
func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				i++
			case 'n':
				i++
				c = '\n'
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// ScrapeTarget fetches and parses one /metrics endpoint.
func ScrapeTarget(url string) (*Snapshot, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scrape %s: status %s", url, resp.Status)
	}
	return ParseExposition(resp.Body)
}
