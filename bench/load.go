package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/monitord"
	"quicksand/internal/obs"
	"quicksand/internal/stats"
)

// A run sets up at least setupReps times and goes on until set-ups have
// taken setupBudget in all (at most 300 times): setup_s is the median, so
// neither a cold start nor one stall of the box decides it, and a set-up
// that takes a millisecond is sampled hundreds of times.
var (
	setupReps   = 3
	setupBudget = 1200 * time.Millisecond
)

// repeatSetup runs setup as above, tears down every product but the last,
// and returns that one with the median set-up time in seconds.
func repeatSetup[T any](setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	var times []float64
	total := 0.0
	for rep := 0; rep < setupReps || (total < setupBudget.Seconds() && rep < 300); rep++ {
		if rep > 0 {
			if err := teardown(last); err != nil {
				return last, 0, err
			}
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(start).Seconds()
		times = append(times, d)
		total += d
		last = v
	}
	return last, pct(times, 50), nil
}

// pct is stats.Percentile with an empty sample reading 0.
func pct(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, p)
	return v
}

// quiet is the statistic latency and CPU time are reported as: the lowest
// decile over the run's slices (seconds, windows or
// passes) of the slice's own figure. On a shared box, interference from
// other tenants comes in episodes of seconds and only ever adds time, so
// the quiet tenth of a run says what the system costs and the rest says
// what the neighbours were doing.
func (rc *runCtx) quiet(metric string, slices []float64) float64 {
	rc.logf("%s by slice %.4g", metric, slices)
	return pct(slices, 10)
}

// cpuSample is the child's cumulative CPU time against the updates
// written so far.
type cpuSample struct {
	written int64
	cpu     float64
}

// tracingOverhead records how much slower the traced slices of a traced
// run were than its untraced ones, as a share of the untraced median.
func tracingOverhead(ly map[string]float64, traced, plain []float64) {
	if t, p := pct(traced, 50), pct(plain, 50); t > 0 && p > 0 {
		ly["harness.tracing_overhead_frac"] = t/p - 1
	}
}

func mean(xs []float64) float64 {
	v, _ := stats.Mean(xs)
	return v
}

// target is a started daemon with the torfeed sessions established.
type target struct {
	feed        *feed
	ch          *child
	sess        []*bgpd.Session
	establishMS []float64
}

// setupTarget is one full service set-up: build the world and the feed,
// write the watch file, start the child, and establish the sessions.
func setupTarget(bin, dir string, seed int64, width int) (*target, error) {
	f, err := buildFeed(seed, loadSessions())
	if err != nil {
		return nil, err
	}
	watchPath := filepath.Join(dir, "watch.txt")
	if err := writeWatchFile(watchPath, f.watch); err != nil {
		return nil, err
	}
	args := []string{"-watch", watchPath}
	if width > 0 {
		args = append(args, "-fleet", strconv.Itoa(width))
	}
	ch, err := startChild(bin, args...)
	if err != nil {
		return nil, err
	}
	t := &target{feed: f, ch: ch}
	for k, asn := range f.vantage {
		start := time.Now()
		sess, err := ch.dial(asn, k)
		if err != nil {
			t.teardown()
			return nil, fmt.Errorf("session %d: %w", k, err)
		}
		t.establishMS = append(t.establishMS, time.Since(start).Seconds()*1e3)
		t.sess = append(t.sess, sess)
	}
	return t, nil
}

// teardown closes the sessions and stops the child, which must exit 0.
func (t *target) teardown() error {
	_, err := t.stop()
	return err
}

func (t *target) stop() (time.Duration, error) {
	for _, s := range t.sess {
		s.Close()
	}
	return t.ch.stop()
}

// tracerRec is one tracer hijack's timeline.
type tracerRec struct {
	due       time.Time // when it was scheduled (closed loop: when the write began)
	sent      time.Time // when the write returned
	pollStart time.Time // start of the /alerts request that carried its alert
	seen      time.Time // end of that request
}

// load is one run of torfeed against a target.
type load struct {
	rc    *runCtx
	t     *target
	rate  float64 // updates/s over all sessions; 0 is closed loop
	start time.Time

	written   atomic.Int64 // prefix-level updates written, tracers included
	bgWritten atomic.Int64 // of which background
	lagMS     [][]float64  // [session] how late each open-loop burst began
	// tracerLagMS is how late each open-loop tracer's write began.
	tracerLagMS []float64

	mu          sync.Mutex
	recs        []tracerRec
	injected    int
	seen        int
	falseAlerts int
	firstFalse  string

	polls       int
	pollSpan    time.Duration // first poll's start to the last's
	pollErrs    int
	ringDropped uint64
	pollRTTus   []float64 // traced runs only
	queueMax    float64   // traced runs only

	seconds []cpuSample // the child's CPU time at each second of the run
	rssMB   []float64   // the child's resident-set peak within each second
	windows []float64   // closed loop: updates written in each 100 ms
}

// tracedSlice reports whether tracer i falls in a traced second. A traced
// run alternates traced and untraced seconds so the two can be compared
// on the same child.
func (l *load) tracedSlice(i int) bool {
	perSlice := int(time.Second / tracerInterval)
	return l.rc.tr != nil && (i/perSlice)%2 == 1
}

// sender drives session k's bursts: on an absolute schedule when the loop
// is open, back to back when it is closed.
func (l *load) sender(k int) error {
	sess, f := l.t.sess[k], l.t.feed
	pool, bg := f.bursts[k], f.bgCount[k]
	var gap time.Duration
	if l.rate > 0 {
		gap = time.Duration(float64(burstSize*len(l.t.sess)) / l.rate * float64(time.Second))
	}
	end := l.start.Add(l.rc.seconds)
	for nb := 0; ; nb++ {
		now := time.Now()
		if gap > 0 {
			due := l.start.Add(time.Duration(nb) * gap)
			if due.After(now) {
				sleepUntil(due)
				now = time.Now()
			}
			l.lagMS[k] = append(l.lagMS[k], now.Sub(due).Seconds()*1e3)
		}
		if !now.Before(end) {
			return nil
		}
		if err := sess.SendRaw(pool[nb%len(pool)], burstSize); err != nil {
			return err
		}
		l.written.Add(burstSize)
		l.bgWritten.Add(int64(bg[nb%len(pool)]))
	}
}

// tracers injects the tracer hijacks into session 0, one per
// tracerInterval. The poller asks every millisecond, so where within its
// millisecond a tracer falls decides how long its alert waits for the next
// poll: on a fixed grid that wait is one constant for a whole run and
// another for the next (the median moved by up to a millisecond between
// runs). Each tracer is therefore due at its own offset within the
// millisecond, stepped by the golden ratio from a seeded start, so any
// stretch of consecutive tracers covers the millisecond evenly and every
// slice of every run sees the same mixture of waits. Open loop, a tracer's
// due time is fixed in advance; closed loop it is due one interval after
// the last was written, and its latency counts from when its own write
// began.
func (l *load) tracers() error {
	sess, f := l.t.sess[0], l.t.feed
	phase := rand.New(rand.NewSource(l.rc.seed)).Float64()
	end := l.start.Add(l.rc.seconds)
	next := l.start
	var buf []byte
	for i := range l.recs {
		_, frac := math.Modf(phase + float64(i)*math.Phi)
		due := next.Add(time.Duration(frac * float64(pollInterval)))
		if !due.Before(end) {
			return nil
		}
		sleepUntil(due)
		now := time.Now()
		if l.rate > 0 {
			l.tracerLagMS = append(l.tracerLagMS, now.Sub(due).Seconds()*1e3)
		} else {
			due = now
		}
		l.mu.Lock()
		l.injected++
		l.recs[i].due = due
		l.mu.Unlock()
		var err error
		if buf, err = f.appendTracer(buf[:0], i); err != nil {
			return err
		}
		if err := sess.SendRaw(buf, 1); err != nil {
			return err
		}
		sent := time.Now()
		l.written.Add(1)
		if l.tracedSlice(i) {
			l.mu.Lock()
			l.recs[i].sent = sent
			l.mu.Unlock()
		}
		if l.rate > 0 {
			next = l.start.Add(time.Duration(i+1) * tracerInterval)
		} else {
			next = sent.Add(tracerInterval)
		}
	}
	return nil
}

// alertsBody is the /alerts wire shape.
type alertsBody struct {
	Alerts []struct {
		Prefix     string `json:"prefix"`
		Kind       string `json:"kind"`
		ObservedAS uint32 `json:"observed_as"`
	} `json:"alerts"`
	Next    uint64 `json:"next"`
	Dropped uint64 `json:"dropped"`
}

// pollAlerts is one keep-alive GET /alerts?since=cursor. The body is read
// to its end so the connection is reused.
func pollAlerts(client *http.Client, httpAddr string, cursor uint64) (*alertsBody, error) {
	resp, err := client.Get(fmt.Sprintf("http://%s/alerts?since=%d&max=%d", httpAddr, cursor, monitord.MaxAlertsPerRequest))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/alerts: status %s", resp.Status)
	}
	var body alertsBody
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, err
	}
	return &body, nil
}

func keepAliveClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

// poller is the operator: one keep-alive connection asking /alerts for
// news every pollInterval, crediting each tracer the moment the response
// that carries its alert has been read.
func (l *load) poller(stop <-chan struct{}) {
	client := keepAliveClient()
	defer client.CloseIdleConnections()
	var cursor uint64
	first := time.Now()
	next := first
	for {
		select {
		case <-stop:
			return
		default:
		}
		sleepUntil(next)
		t0 := time.Now()
		l.pollSpan = t0.Sub(first)
		body, err := pollAlerts(client, l.t.ch.httpAddr, cursor)
		t1 := time.Now()
		// An absolute schedule: a period counted from each request's end
		// would stretch by the request's own duration.
		if next = next.Add(pollInterval); next.Before(t1) {
			next = t1
		}
		l.polls++
		if err != nil {
			l.pollErrs++
			continue
		}
		if l.rc.tr != nil {
			l.pollRTTus = append(l.pollRTTus, t1.Sub(t0).Seconds()*1e6)
		}
		cursor = body.Next
		l.ringDropped += body.Dropped
		for _, a := range body.Alerts {
			l.credit(a.Prefix, a.Kind, bgp.ASN(a.ObservedAS), t0, t1)
		}
	}
}

// credit checks one alert against the tracer it must belong to — the
// legitimate feed raises none — and stamps the tracer seen.
func (l *load) credit(prefix, kind string, observed bgp.ASN, t0, t1 time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := int(int64(observed) - int64(tracerBase))
	if kind != "origin-change" || i < 0 || i >= l.injected ||
		prefix != l.t.feed.tracerPrefix(i).String() || !l.recs[i].seen.IsZero() {
		if l.falseAlerts++; l.firstFalse == "" {
			l.firstFalse = fmt.Sprintf("%s %s observed AS%d", kind, prefix, uint32(observed))
		}
		return
	}
	r := &l.recs[i]
	r.pollStart, r.seen = t0, t1
	l.seen++
	if !l.tracedSlice(i) {
		return
	}
	if r.sent.IsZero() {
		r.sent = t0 // the alert overtook the write's return
	}
	tr, trace := l.rc.tr, "tracer-"+strconv.Itoa(i)
	root := tr.add(trace, 0, "tracer", r.due, r.seen, map[string]int64{"alerts": 1})
	tr.add(trace, root, "send", r.due, r.sent, map[string]int64{"updates": 1})
	tr.add(trace, root, "visible", r.sent, maxTime(r.sent, r.pollStart), nil)
	tr.add(trace, root, "poll", r.pollStart, r.seen, nil)
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// settled reports whether every injected tracer has been seen.
func (l *load) settled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen == l.injected
}

// every calls fn each period until stop closes.
func every(period time.Duration, stop <-chan struct{}, fn func()) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			fn()
		}
	}
}

// books is the daemon's own account of where the updates went.
type books struct {
	ingested, dropped, unwatched float64
	forwarded                    []float64 // per fleet shard
}

func (b books) accounted() float64 { return b.ingested + b.dropped + b.unwatched }

func readBooks(snap *obs.Snapshot, width int) books {
	var b books
	b.ingested, _ = snap.Sum("monitord_updates_ingested_total", nil)
	b.unwatched, _ = snap.Sum("fleet_updates_unwatched_total", nil)
	for _, name := range []string{"monitord_updates_dropped_total", "fleet_updates_dropped_total", "fleet_forward_dropped_total"} {
		v, _ := snap.Sum(name, nil)
		b.dropped += v
	}
	for s := 0; s < width; s++ {
		v, _ := snap.Sum("fleet_updates_forwarded_total", map[string]string{"shard": strconv.Itoa(s)})
		b.forwarded = append(b.forwarded, v)
	}
	return b
}

// awaitBooks scrapes until the daemon has accounted for sent updates, or
// five seconds pass, and returns the last reading and when it was taken.
func awaitBooks(ch *child, width int, sent int64) (books, time.Time, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := ch.scrape()
		at := time.Now()
		if err != nil {
			return books{}, at, err
		}
		if b := readBooks(snap, width); b.accounted() >= float64(sent) || at.After(deadline) {
			return b, at, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// histMS reads quantile q of a child histogram in milliseconds; an empty
// histogram reads 0.
func histMS(snap *obs.Snapshot, family string, q float64, match map[string]string) float64 {
	v, err := snap.Quantile(family, q, match)
	if err != nil || math.IsNaN(v) || v < 0 {
		return 0
	}
	return v * 1e3
}

// drive runs the measured window: the poller, the slice clocks, one
// sender per session and the tracer injector, then the settle during
// which the last tracers' alerts surface.
func (l *load) drive() error {
	stopPoll, stopSample := make(chan struct{}), make(chan struct{})
	var pollWG, sampleWG sync.WaitGroup
	sample := func(period time.Duration, fn func()) {
		sampleWG.Add(1)
		go func() { defer sampleWG.Done(); every(period, stopSample, fn) }()
	}
	pollWG.Add(1)
	go func() { defer pollWG.Done(); l.poller(stopPoll) }()

	// Two clocks slice the run: every second the child's CPU time against
	// the updates written and its resident-set peak within that second,
	// and, closed loop, every 100 ms the updates written alone — how fast
	// the daemon absorbs them.
	cpu0, err := l.t.ch.cpuSeconds()
	if err != nil {
		return err
	}
	if _, err := l.t.ch.takePeakRSSMB(); err != nil {
		return err
	}
	l.seconds = []cpuSample{{0, cpu0}}
	l.start = time.Now()
	sample(time.Second, func() {
		if cpu, err := l.t.ch.cpuSeconds(); err == nil {
			l.seconds = append(l.seconds, cpuSample{l.written.Load(), cpu})
		}
		if mb, err := l.t.ch.takePeakRSSMB(); err == nil {
			l.rssMB = append(l.rssMB, mb)
		}
	})
	if l.rate == 0 {
		last := int64(0)
		sample(100*time.Millisecond, func() {
			now := l.written.Load()
			l.windows = append(l.windows, float64(now-last))
			last = now
		})
	}
	if l.rc.tr != nil {
		sample(100*time.Millisecond, func() {
			if snap, err := l.t.ch.scrape(); err == nil {
				depth, _ := snap.Sum("monitord_ingest_queue_depth", nil)
				l.queueMax = max(l.queueMax, depth)
			}
		})
	}
	errs := make(chan error, len(l.t.sess)+1)
	go func() { errs <- l.tracers() }()
	for k := range l.t.sess {
		go func() { errs <- l.sender(k) }()
	}
	for range cap(errs) {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	close(stopSample)
	sampleWG.Wait()
	// The last, partial second counts towards memory too, so a run shorter
	// than the slice clock still has a reading.
	if mb, err := l.t.ch.takePeakRSSMB(); err == nil {
		l.rssMB = append(l.rssMB, mb)
	}
	// Settle: keep polling until every tracer's alert has surfaced.
	for deadline := time.Now().Add(3 * time.Second); err == nil && !l.settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stopPoll)
	pollWG.Wait()
	return err
}

// latencies returns every detected tracer's latency in milliseconds —
// all, those of traced seconds, those of untraced seconds — and the
// median of each second's.
func (l *load) latencies() (all, traced, plain, secondP50 []float64) {
	perSecond := int(time.Second / tracerInterval)
	var slice []float64
	for i, r := range l.recs[:l.injected] {
		if i > 0 && i%perSecond == 0 {
			secondP50, slice = append(secondP50, pct(slice, 50)), slice[:0]
		}
		if r.seen.IsZero() {
			continue
		}
		ms := r.seen.Sub(r.due).Seconds() * 1e3
		all, slice = append(all, ms), append(slice, ms)
		if l.tracedSlice(i) {
			traced = append(traced, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	if len(slice) >= perSecond/2 {
		secondP50 = append(secondP50, pct(slice, 50))
	}
	return all, traced, plain, secondP50
}

// verify applies the output checks of a load run to res.
func (l *load) verify(res *outcome, bk books, width int) {
	sent := l.written.Load()
	if lost := l.injected - l.seen; lost > 0 {
		res.failed += int64(lost)
		res.failf("%d of %d tracers raised no alert within the settle window", lost, l.injected)
	}
	if l.falseAlerts > 0 {
		res.failed += int64(l.falseAlerts)
		res.failf("%d alerts match no tracer (first: %s)", l.falseAlerts, l.firstFalse)
	}
	if l.ringDropped > 0 || l.pollErrs > 0 {
		res.failf("alert polling lost data: %d evicted unseen, %d failed polls", l.ringDropped, l.pollErrs)
	}
	if diff := float64(sent) - bk.accounted(); diff != 0 {
		res.failed += int64(math.Abs(diff))
		res.failf("books do not balance: sent %d, daemon accounts for %.0f", sent, bk.accounted())
	}
	if bk.dropped > 0 {
		res.failed += int64(bk.dropped)
		res.failf("daemon dropped %.0f well-formed updates", bk.dropped)
	}
	if width == 0 {
		return
	}
	if bg := float64(l.bgWritten.Load()); bk.unwatched != bg {
		res.failf("router rejected %.0f updates as unwatched, feed sent %.0f background", bk.unwatched, bg)
	}
	for s, v := range bk.forwarded {
		if v == 0 {
			res.failf("fleet shard %d was forwarded nothing", s)
		}
	}
}

// runLoad is the four load workloads: torfeed into one daemon (width 0)
// or a fleet of width shards, open loop at rate or closed loop (rate 0).
func runLoad(rc *runCtx, width int, rate float64) (*outcome, error) {
	bin, err := buildChild(rc)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t, setupS, err := repeatSetup(
		func() (*target, error) { return setupTarget(bin, dir, rc.seed, width) },
		(*target).teardown)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			t.stop()
		}
	}()

	l := &load{
		rc: rc, t: t, rate: rate,
		lagMS: make([][]float64, len(t.sess)),
		recs:  make([]tracerRec, int(rc.seconds/tracerInterval)+1),
	}
	if err := l.drive(); err != nil {
		return nil, fmt.Errorf("sender: %w\n%s", err, t.ch.tail())
	}
	sent := l.written.Load()
	bk, drainedAt, err := awaitBooks(t.ch, width, sent)
	if err != nil {
		return nil, err
	}
	var snap *obs.Snapshot
	var scrapeMS, parseUS float64
	if rc.tr != nil {
		if snap, scrapeMS, parseUS, err = timedScrape(t.ch); err != nil {
			return nil, err
		}
	}
	drain, stopErr := t.stop()
	stopped = true

	res := newOutcome()
	res.attempted = sent
	if stopErr != nil {
		res.failf("%v", stopErr)
	}
	l.verify(res, bk, width)
	lat, latTraced, latPlain, secondP50 := l.latencies()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no tracer was detected\n%s", t.ch.tail())
	}

	var absorb, cpuUS []float64
	for _, n := range l.windows {
		if n > 0 {
			absorb = append(absorb, 1e7/n) // ms to absorb 100 000 updates at this window's rate
		}
	}
	for i := 1; i < len(l.seconds); i++ {
		if n := l.seconds[i].written - l.seconds[i-1].written; n > 0 {
			cpuUS = append(cpuUS, (l.seconds[i].cpu-l.seconds[i-1].cpu)*1e6/float64(n))
		}
	}
	accountedPerS := bk.accounted() / drainedAt.Sub(l.start).Seconds()
	res.e2e["setup_s"] = setupS
	if rate > 0 {
		res.e2e["latency_p50_ms"] = rc.quiet("latency_p50_ms", secondP50)
	} else {
		res.e2e["latency_p50_ms"] = rc.quiet("latency_p50_ms", absorb)
	}
	res.e2e["cpu_us_per_unit"] = rc.quiet("cpu_us_per_unit", cpuUS)
	rc.logf("peak_rss_mb by slice %.4g", l.rssMB)
	res.e2e["peak_rss_mb"] = pct(l.rssMB, 50)
	rc.logf("sent %d updates (%d tracers, n=%d latencies) in %v; p50 %.3f ms p95 %.3f ms; %.0f updates/s accounted",
		sent, l.injected, len(lat), rc.seconds, pct(lat, 50), pct(lat, 95), accountedPerS)
	if rc.tr == nil {
		return res, nil
	}

	// Per-layer figures: the harness's own, the child's exported
	// histograms over the run, then the in-process probes on this feed.
	ly := res.layer
	lag := append([]float64(nil), l.tracerLagMS...)
	for _, s := range l.lagMS {
		lag = append(lag, s...)
	}
	period := l.pollSpan.Seconds() * 1e3 / float64(max(l.polls-1, 1))
	ly["harness.send_lag_p50_ms"] = pct(lag, 50)
	ly["harness.send_lag_p99_ms"] = pct(lag, 99)
	ly["harness.poll_wait_p50_ms"] = period / 2
	ly["harness.updates_per_s"] = accountedPerS
	tracingOverhead(ly, latTraced, latPlain)
	ly["bgpd.establish_ms"] = mean(t.establishMS)
	childHistograms(snap, ly)
	ly["monitord.queue_depth_max"] = l.queueMax
	ly["monitord.shutdown_drain_ms"] = drain.Seconds() * 1e3
	ly["obs.parse_exposition_us"] = parseUS
	rtt := pct(l.pollRTTus, 50)
	if width > 0 {
		ly["fleet.http_alerts_rtt_p50_us"] = rtt
		ly["fleet.metrics_scrape_ms"] = scrapeMS
		ly["fleet.unwatched_frac"] = bk.unwatched / float64(sent)
		hi, sum := 0.0, 0.0
		for _, v := range bk.forwarded {
			hi, sum = max(hi, v), sum+v
		}
		ly["fleet.forward_skew"] = hi / (sum / float64(width))
	} else {
		ly["monitord.http_alerts_rtt_p50_us"] = rtt
	}
	if rate > 0 {
		ly["tail.alert_latency_p95_ms"] = pct(lat, 95)
		ly["tail.alert_latency_p99_ms"] = pct(lat, 99)
	} else {
		ly["tail.saturated_alert_latency_p50_ms"] = pct(lat, 50)
		ly["tail.saturated_alert_latency_p95_ms"] = pct(lat, 95)
	}
	if err := probeLayers(rc, t.feed, width, ly); err != nil {
		return nil, err
	}
	if rate > 0 {
		// The ROADMAP's budget line: what the probed layers on the blocking
		// path leave unexplained of the end-to-end median.
		explained := pct(l.tracerLagMS, 50) + ly["bgpd.loopback_oneway_p50_us"]/1e3 + rtt/1e3 + period/2
		if width > 0 {
			explained += ly["fleet.ingest_to_merged_p50_ms"]
		} else {
			explained += ly["monitord.ingest_to_ring_p50_us"] / 1e3
		}
		ly["budget.unattributed_p50_frac"] = (pct(lat, 50) - explained) / pct(lat, 50)
	}
	return res, nil
}

// childHistograms reads the pipeline histograms the child exported over
// the run.
func childHistograms(snap *obs.Snapshot, ly map[string]float64) {
	ly["monitord.stage_read_p99_ms"] = histMS(snap, "monitord_stage_seconds", 0.99, map[string]string{"stage": "read"})
	ly["monitord.stage_dispatch_p99_ms"] = histMS(snap, "monitord_stage_seconds", 0.99, map[string]string{"stage": "dispatch"})
	ly["monitord.detection_p50_us"] = histMS(snap, "monitord_detection_seconds", 0.5, nil) * 1e3
}

// timedScrape fetches the child's /metrics once, timing the scrape and
// then the parse of the captured body.
func timedScrape(ch *child) (snap *obs.Snapshot, scrapeMS, parseUS float64, err error) {
	start := time.Now()
	raw, err := ch.metricsBody()
	if err != nil {
		return nil, 0, 0, err
	}
	scrapeMS = time.Since(start).Seconds() * 1e3
	const reps = 20
	start = time.Now()
	for i := 0; i < reps; i++ {
		if snap, err = obs.ParseExposition(bytes.NewReader(raw)); err != nil {
			return nil, 0, 0, err
		}
	}
	parseUS = time.Since(start).Seconds() * 1e6 / reps
	return snap, scrapeMS, parseUS, nil
}
