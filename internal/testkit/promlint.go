package testkit

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"quicksand/internal/obs"
)

// Prometheus text-exposition (version 0.0.4) linter, on top of the
// repository's one parser, obs.ParseExposition. Every /metrics endpoint
// in the repository — monitord's, with and without -fleet, and the shared
// internal/obs handler — is checked against these rules in tests, so an
// exposition that a real Prometheus server would reject (or silently
// misread) fails CI instead of a scrape.

// LintProm parses text and checks the exposition rules Prometheus
// enforces (plus the repository's own conventions), returning every
// violation found. A nil slice means the exposition is clean.
//
// Checks: parseability, which with obs.ParseExposition includes known
// TYPE values and no duplicate series; HELP and TYPE present; families
// contiguous (no interleaved reappearance); counters named *_total with
// non-negative values; histograms with in-order le buckets, a +Inf
// bucket, non-decreasing cumulative counts, and _count matching the
// +Inf bucket.
func LintProm(text string) []error {
	snap, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		return []error{err}
	}
	var errs []error
	lintf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	lastLine := 0
	for _, fam := range snap.Families {
		if !fam.HasHelp {
			lintf("family %s: no HELP", fam.Name)
		}
		if fam.Type == "" {
			lintf("family %s: no TYPE", fam.Name)
		}

		// Contiguity: every sample of this family must come after the
		// previous family's samples ended (no interleaving).
		for _, s := range fam.Samples {
			if s.Line < lastLine {
				lintf("family %s: sample at line %d interleaved with another family", fam.Name, s.Line)
			}
			if s.Line > lastLine {
				lastLine = s.Line
			}
		}

		switch fam.Type {
		case "counter":
			if !strings.HasSuffix(fam.Name, "_total") {
				lintf("family %s: counter not named *_total", fam.Name)
			}
			for _, s := range fam.Samples {
				if s.Name != fam.Name {
					lintf("family %s: counter sample named %s", fam.Name, s.Name)
				}
				if s.Value < 0 {
					lintf("family %s: negative counter value %v", fam.Name, s.Value)
				}
			}
		case "gauge":
			for _, s := range fam.Samples {
				if s.Name != fam.Name {
					lintf("family %s: gauge sample named %s", fam.Name, s.Name)
				}
			}
		case "histogram":
			lintHistogram(fam, lintf)
		}
	}
	return errs
}

// lintHistogram checks one histogram family: per-series bucket order,
// +Inf presence, cumulative monotonicity, and _count consistency.
func lintHistogram(fam *obs.ScrapedFamily, lintf func(string, ...any)) {
	type hist struct {
		bounds []float64
		counts []float64
		count  float64
		hasCnt bool
		hasSum bool
	}
	series := make(map[string]*hist)
	order := []string{}
	get := func(labels map[string]string) *hist {
		names := make([]string, 0, len(labels))
		for n := range labels {
			if n != "le" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s=%q,", n, labels[n])
		}
		k := b.String()
		h, ok := series[k]
		if !ok {
			h = &hist{}
			series[k] = h
			order = append(order, k)
		}
		return h
	}

	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			le := s.Labels["le"]
			if le == "" {
				lintf("family %s: bucket without le label (line %d)", fam.Name, s.Line)
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				lintf("family %s: unparseable le %q", fam.Name, le)
				continue
			}
			h := get(s.Labels)
			h.bounds = append(h.bounds, bound)
			h.counts = append(h.counts, s.Value)
		case fam.Name + "_sum":
			get(s.Labels).hasSum = true
		case fam.Name + "_count":
			h := get(s.Labels)
			h.hasCnt = true
			h.count = s.Value
		default:
			lintf("family %s: unexpected histogram sample %s", fam.Name, s.Name)
		}
	}

	for _, k := range order {
		h := series[k]
		name := fam.Name
		if k != "" {
			name += "{" + strings.TrimSuffix(k, ",") + "}"
		}
		if len(h.bounds) == 0 {
			lintf("histogram %s: no buckets", name)
			continue
		}
		if !math.IsInf(h.bounds[len(h.bounds)-1], 1) {
			lintf("histogram %s: last bucket is not +Inf", name)
		}
		for i := 1; i < len(h.bounds); i++ {
			if h.bounds[i] <= h.bounds[i-1] {
				lintf("histogram %s: le buckets out of order (%v after %v)", name, h.bounds[i], h.bounds[i-1])
			}
			if h.counts[i] < h.counts[i-1] {
				lintf("histogram %s: bucket counts not cumulative (%v after %v)", name, h.counts[i], h.counts[i-1])
			}
		}
		if !h.hasSum {
			lintf("histogram %s: missing _sum", name)
		}
		if !h.hasCnt {
			lintf("histogram %s: missing _count", name)
		} else if h.count != h.counts[len(h.counts)-1] {
			lintf("histogram %s: _count %v != +Inf bucket %v", name, h.count, h.counts[len(h.counts)-1])
		}
	}
}
