package testkit

import (
	"strings"
	"testing"

	"quicksand/internal/obs"
)

const cleanExposition = `# HELP demo_updates_total Updates ingested.
# TYPE demo_updates_total counter
demo_updates_total 42
# HELP demo_depth Queue depth per shard.
# TYPE demo_depth gauge
demo_depth{shard="0"} 3
demo_depth{shard="1"} 0
# HELP demo_latency_seconds Latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.1"} 1
demo_latency_seconds_bucket{le="1"} 3
demo_latency_seconds_bucket{le="+Inf"} 5
demo_latency_seconds_sum 6.5
demo_latency_seconds_count 5
`

func TestLintPromClean(t *testing.T) {
	if errs := LintProm(cleanExposition); len(errs) != 0 {
		t.Fatalf("clean exposition flagged: %v", errs)
	}
}

func TestLintPromViolations(t *testing.T) {
	cases := map[string]struct {
		in   string
		want string // substring of some reported error
	}{
		"no help": {
			"# TYPE x_total counter\nx_total 1\n", "no HELP"},
		"no type": {
			"# HELP x_total x\nx_total 1\n", "no TYPE"},
		"unknown type": {
			"# HELP x x\n# TYPE x enum\nx 1\n", "unknown TYPE"},
		"counter name": {
			"# HELP x x\n# TYPE x counter\nx 1\n", "not named *_total"},
		"negative counter": {
			"# HELP x_total x\n# TYPE x_total counter\nx_total -1\n", "negative counter"},
		"duplicate series": {
			"# HELP g x\n# TYPE g gauge\ng{a=\"1\"} 1\ng{a=\"1\"} 2\n", "duplicate series"},
		"interleaved families": {
			"# HELP a x\n# TYPE a gauge\n# HELP b x\n# TYPE b gauge\na{s=\"0\"} 1\nb 1\na{s=\"1\"} 2\n", "interleaved"},
		"bucket order": {
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
			"out of order"},
		"no inf bucket": {
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "not +Inf"},
		"non-cumulative": {
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
			"not cumulative"},
		"count mismatch": {
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n", "_count 4"},
		"missing sum": {
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n", "missing _sum"},
	}
	for name, tc := range cases {
		errs := LintProm(tc.in)
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no error containing %q in %v", name, tc.want, errs)
		}
	}
}

// FuzzPromParse fuzzes the one exposition parser, obs.ParseExposition
// (ScrapeTarget and bench/ feed it outside input): it never panics, nor
// does the linter on what it accepts, Family finds every family it
// lists, and every sample points at a line of the text.
func FuzzPromParse(f *testing.F) {
	f.Add(cleanExposition)
	f.Add("x_total{a=\"b\\\"c\"} 1\n")
	f.Add("# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} NaN\nh_sum -Inf\nh_count 0\n")
	f.Add("x 1 123\n{} 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		snap, err := obs.ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		LintProm(text)
		lines := strings.Count(text, "\n") + 1
		for _, fam := range snap.Families {
			if snap.Family(fam.Name) != fam {
				t.Fatalf("Family(%q) is not the family listed", fam.Name)
			}
			for _, sm := range fam.Samples {
				if sm.Line < 1 || sm.Line > lines {
					t.Fatalf("sample %s on line %d of %d", sm.Name, sm.Line, lines)
				}
			}
		}
	})
}
