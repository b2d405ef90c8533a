package obs_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quicksand/internal/obs"
	"quicksand/internal/testkit"
)

// TestConcurrentScrapeUnderLoad hammers a HistogramVec from GOMAXPROCS
// (at least 4) writer goroutines while repeatedly scraping /metrics,
// asserting at every scrape that the exposition is internally
// consistent: buckets cumulative and monotone, le="+Inf" present,
// _count equal to the +Inf bucket (the invariant the renderer
// guarantees by deriving _count from the cumulative buckets), and both
// _count and _sum monotone across scrapes. Run under -race in CI.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	writers := runtime.GOMAXPROCS(0)
	if writers < 4 {
		writers = 4
	}
	const perWriter = 20000
	const obsValue = 0.5

	reg := obs.NewRegistry()
	hv := reg.HistogramVec("quicksand_load_seconds", "Scrape-under-load test.",
		[]float64{0.1, 0.25, 0.5, 1}, "writer")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		reg.WritePrometheus(w)
	}))
	defer srv.Close()

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := hv.With(fmt.Sprintf("w%d", w%2)) // shared series: real contention
			for i := 0; i < perWriter; i++ {
				h.Observe(obsValue)
			}
		}(w)
	}
	go func() { wg.Wait(); done.Store(true) }()

	var lastCount, lastSum float64
	scrapes := 0
	for scrapes == 0 || !done.Load() {
		text := scrape(t, srv.URL+"/metrics")
		scrapes++
		// Lint enforces bucket monotonicity, +Inf presence, and
		// _count == +Inf bucket on the scraped exposition.
		if errs := testkit.LintProm(text); errs != nil {
			t.Fatalf("scrape %d fails lint: %v", scrapes, errs)
		}
		snap, err := obs.ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		count, _ := snap.Sum("quicksand_load_seconds_count", nil)
		sum, _ := snap.Sum("quicksand_load_seconds_sum", nil)
		if count < lastCount {
			t.Fatalf("scrape %d: _count went backwards: %v -> %v", scrapes, lastCount, count)
		}
		if sum < lastSum {
			t.Fatalf("scrape %d: _sum went backwards: %v -> %v", scrapes, lastSum, sum)
		}
		total := float64(writers) * perWriter
		if count > total {
			t.Fatalf("scrape %d: _count %v exceeds total observations %v", scrapes, count, total)
		}
		if sum > total*obsValue+1e-6 {
			t.Fatalf("scrape %d: _sum %v exceeds max possible %v", scrapes, sum, total*obsValue)
		}
		lastCount, lastSum = count, sum
	}

	// Quiescent final scrape: exact totals.
	snap, err := obs.ScrapeTarget(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	total := float64(writers) * perWriter
	if count, _ := snap.Sum("quicksand_load_seconds_count", nil); count != total {
		t.Errorf("final _count = %v, want %v", count, total)
	}
	if sum, _ := snap.Sum("quicksand_load_seconds_sum", nil); sum != total*obsValue {
		t.Errorf("final _sum = %v, want %v", sum, total*obsValue)
	}
	t.Logf("%d scrapes overlapped %d writers x %d observations", scrapes, writers, perWriter)
}

// scrape returns the exposition text served at url.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
