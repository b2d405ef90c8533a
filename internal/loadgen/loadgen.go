// Package loadgen is the fleet load harness: it drives one or more
// monitord instances over real TCP BGP sessions at a controlled update
// rate while injecting timestamped "tracer" hijacks of a watched
// prefix, and measures the injection-to-alert latency distribution the
// fleet delivers under that load.
//
// Each target gets Sessions concurrent load sessions replaying
// pre-encoded background UPDATE bursts (rate-limited per session) plus
// one dedicated tracer session. Every TracerInterval the tracer
// announces the watched prefix with a fresh bogus origin AS, so each
// injection is uniquely identifiable in the alert stream; a poller per
// target consumes alerts (in-process or over the HTTP /alerts API) and
// stamps the tracer detected the moment it surfaces. The measured
// latency is therefore the full client-visible path — socket write,
// pipeline, alert ring, poll — an upper bound on the daemon's internal
// monitord_detection_seconds histogram.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/monitord"
	"quicksand/internal/stats"
)

// Target is one monitord instance under load.
type Target struct {
	Name    string // label in results (defaults to BGPAddr)
	BGPAddr string // host:port of the instance's BGP listener
	// Alerts is where the target's alerts are polled from: the daemon or
	// router itself for in-process targets, an HTTPAlerts on its /alerts
	// endpoint for remote ones.
	Alerts monitord.AlertSource
}

// HTTPAlerts is the /alerts polling client under the name the harness's
// callers know it by.
type HTTPAlerts = monitord.HTTPAlerts

// Config parameterises a load run.
type Config struct {
	Targets []Target
	// Sessions is the number of concurrent load sessions per target
	// (default 1); every target additionally gets one tracer session.
	Sessions int
	// Rate caps each load session at this many updates/sec; 0 means
	// unthrottled (send as fast as the pipe accepts).
	Rate float64
	// Duration is the length of the load phase.
	Duration time.Duration
	// TracerInterval spaces tracer hijack injections (default 50ms).
	TracerInterval time.Duration
	// PollInterval spaces alert polls (default 2ms); it bounds the
	// harness-added latency on every measurement.
	PollInterval time.Duration
	// Settle is how long after the load phase to keep polling for
	// still-in-flight tracers (default 3s).
	Settle time.Duration
	// Seed makes the background workload deterministic.
	Seed int64
	// WatchedPrefix is a prefix every target monitors; tracer hijacks
	// announce it with bogus origins.
	WatchedPrefix netip.Prefix
	// TracerPrefixes, when set, spreads the tracer hijacks round-robin
	// across several watched prefixes instead of just WatchedPrefix —
	// against a fleet router this exercises every shard's dispatch and
	// alert path, not only the shard owning one prefix. Every entry must
	// be watched by the target. Defaults to [WatchedPrefix].
	TracerPrefixes []netip.Prefix
	// TracerBase is the first bogus origin ASN; tracer i uses
	// TracerBase+i, so the range must be disjoint from the background
	// workload's AS numbers. Default 64900.
	TracerBase bgp.ASN
	// LocalAS is the base ASN of the harness's sessions; session k on
	// target t peers as LocalAS+t*(Sessions+1)+k. Default 64601.
	LocalAS bgp.ASN
	// BurstSize is how many updates each pre-encoded burst carries
	// (default 256).
	BurstSize int
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if len(out.Targets) == 0 {
		return out, errors.New("loadgen: no targets")
	}
	for i, t := range out.Targets {
		if t.BGPAddr == "" {
			return out, fmt.Errorf("loadgen: target %d has no BGP address", i)
		}
		if t.Alerts == nil {
			return out, fmt.Errorf("loadgen: target %d has no alert source", i)
		}
		if t.Name == "" {
			out.Targets[i].Name = t.BGPAddr
		}
	}
	if out.Duration <= 0 {
		return out, errors.New("loadgen: Duration must be positive")
	}
	if len(out.TracerPrefixes) == 0 {
		if !out.WatchedPrefix.IsValid() {
			return out, errors.New("loadgen: WatchedPrefix must be set")
		}
		out.TracerPrefixes = []netip.Prefix{out.WatchedPrefix}
	}
	for i, p := range out.TracerPrefixes {
		if !p.IsValid() {
			return out, fmt.Errorf("loadgen: tracer prefix %d is invalid", i)
		}
	}
	if out.Sessions <= 0 {
		out.Sessions = 1
	}
	if out.TracerInterval <= 0 {
		out.TracerInterval = 50 * time.Millisecond
	}
	if out.PollInterval <= 0 {
		out.PollInterval = 2 * time.Millisecond
	}
	if out.Settle <= 0 {
		out.Settle = 3 * time.Second
	}
	if out.TracerBase == 0 {
		out.TracerBase = 64900
	}
	if out.LocalAS == 0 {
		out.LocalAS = 64601
	}
	if out.BurstSize <= 0 {
		out.BurstSize = 256
	}
	return out, nil
}

// TargetResult is one target's share of a run.
type TargetResult struct {
	Name            string
	UpdatesSent     uint64
	TracersInjected int
	TracersDetected int
	// Latencies holds one injection-to-alert measurement in seconds per
	// detected tracer.
	Latencies []float64
}

// Result aggregates a load run across the fleet.
type Result struct {
	Elapsed         time.Duration
	UpdatesSent     uint64
	UpdatesPerSec   float64
	TracersInjected int
	TracersDetected int
	TracersLost     int
	// P50/P95/P99 are injection-to-alert latency percentiles in seconds
	// across all detected tracers (zero when none were detected).
	P50, P95, P99 float64
	Targets       []TargetResult
}

// tracerLog tracks one target's injected tracers and their fates.
type tracerLog struct {
	mu       sync.Mutex
	injected map[bgp.ASN]time.Time
	detected map[bgp.ASN]float64 // seconds
}

func newTracerLog() *tracerLog {
	return &tracerLog{
		injected: make(map[bgp.ASN]time.Time),
		detected: make(map[bgp.ASN]float64),
	}
}

func (l *tracerLog) inject(asn bgp.ASN) {
	l.mu.Lock()
	l.injected[asn] = time.Now()
	l.mu.Unlock()
}

// observe records the first sighting of a tracer's alert; repeats and
// non-tracer alerts are ignored.
func (l *tracerLog) observe(asn bgp.ASN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t0, ok := l.injected[asn]
	if !ok {
		return
	}
	if _, seen := l.detected[asn]; seen {
		return
	}
	l.detected[asn] = time.Since(t0).Seconds()
}

// settled reports whether every injected tracer has been detected.
func (l *tracerLog) settled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.detected) == len(l.injected)
}

func (l *tracerLog) counts() (injected, detected int, latencies []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	latencies = make([]float64, 0, len(l.detected))
	for _, s := range l.detected {
		latencies = append(latencies, s)
	}
	return len(l.injected), len(l.detected), latencies
}

// Run executes the load run described by cfg and reports the fleet-wide
// throughput and detection-latency distribution. It returns early with
// an error if a session cannot be established or the context is
// cancelled before the load phase completes.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	runs := make([]*targetRun, len(cfg.Targets))
	for i := range cfg.Targets {
		tr, err := startTarget(&cfg, i)
		if err != nil {
			for _, r := range runs[:i] {
				r.close()
			}
			return nil, err
		}
		runs[i] = tr
	}
	defer func() {
		for _, r := range runs {
			r.close()
		}
	}()

	loadCtx, cancelLoad := context.WithTimeout(ctx, cfg.Duration)
	defer cancelLoad()
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, len(runs)*(cfg.Sessions+2))
	for _, r := range runs {
		r.start(loadCtx, &wg, errc)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: run cancelled: %w", err)
	}
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	// Load phase over: keep polling until every tracer's alert surfaced
	// or the settle window runs out (lost tracers are reported, not an
	// error — losing them under overload is a finding).
	settleCtx, cancelSettle := context.WithTimeout(ctx, cfg.Settle)
	defer cancelSettle()
	var settleWG sync.WaitGroup
	for _, r := range runs {
		settleWG.Add(1)
		go func(r *targetRun) {
			defer settleWG.Done()
			r.pollUntilSettled(settleCtx)
		}(r)
	}
	settleWG.Wait()

	res := &Result{Elapsed: elapsed}
	var latencies []float64
	for _, r := range runs {
		injected, detected, lat := r.tracers.counts()
		res.Targets = append(res.Targets, TargetResult{
			Name:            r.tgt.Name,
			UpdatesSent:     r.sent.Load(),
			TracersInjected: injected,
			TracersDetected: detected,
			Latencies:       lat,
		})
		res.UpdatesSent += r.sent.Load()
		res.TracersInjected += injected
		res.TracersDetected += detected
		latencies = append(latencies, lat...)
	}
	res.TracersLost = res.TracersInjected - res.TracersDetected
	if elapsed > 0 {
		res.UpdatesPerSec = float64(res.UpdatesSent) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		// Percentile only errors on empty input or out-of-range p.
		res.P50, _ = stats.Percentile(latencies, 50)
		res.P95, _ = stats.Percentile(latencies, 95)
		res.P99, _ = stats.Percentile(latencies, 99)
	}
	return res, nil
}

// targetRun is the live state of one target: its established sessions
// and tracer bookkeeping.
type targetRun struct {
	cfg       *Config
	tgt       Target
	index     int
	load      []*bgpd.Session
	tracer    *bgpd.Session
	sent      atomic.Uint64
	tracers   *tracerLog
	tracerSet map[netip.Prefix]bool
	cursor    uint64
}

// startTarget dials and establishes the target's load and tracer
// sessions up front, so a down target fails the run before any load.
func startTarget(cfg *Config, i int) (*targetRun, error) {
	tr := &targetRun{
		cfg: cfg, tgt: cfg.Targets[i], index: i, tracers: newTracerLog(),
		tracerSet: make(map[netip.Prefix]bool, len(cfg.TracerPrefixes)),
	}
	for _, p := range cfg.TracerPrefixes {
		tr.tracerSet[p] = true
	}
	base := cfg.LocalAS + bgp.ASN(i*(cfg.Sessions+1))
	for k := 0; k <= cfg.Sessions; k++ {
		sess, err := dialSession(tr.tgt.BGPAddr, base+bgp.ASN(k))
		if err != nil {
			tr.close()
			return nil, fmt.Errorf("loadgen: target %s session %d: %w", tr.tgt.Name, k, err)
		}
		if k == cfg.Sessions {
			tr.tracer = sess
		} else {
			tr.load = append(tr.load, sess)
		}
	}
	return tr, nil
}

func dialSession(addr string, asn bgp.ASN) (*bgpd.Session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN:   asn,
		BGPID: netip.AddrFrom4([4]byte{203, 0, 113, byte(1 + asn%250)}),
		// Tracer origins climb past 65535; on a 2-octet session they would
		// all collapse to AS_TRANS and be indistinguishable.
		AS4: true,
		// HoldTime 0: the harness saturates the write side and must not
		// be torn down for not reading keepalives fast enough.
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !sess.AS4() {
		sess.Close()
		return nil, fmt.Errorf("target AS%d did not negotiate 4-octet AS numbers (set AS4 on its speaker)", uint32(sess.PeerAS()))
	}
	return sess, nil
}

// start launches the target's load writers, tracer injector, and alert
// poller under wg.
func (tr *targetRun) start(ctx context.Context, wg *sync.WaitGroup, errc chan<- error) {
	for k, sess := range tr.load {
		wg.Add(1)
		go func(k int, sess *bgpd.Session) {
			defer wg.Done()
			if err := tr.loadLoop(ctx, k, sess); err != nil {
				errc <- fmt.Errorf("loadgen: target %s load session %d: %w", tr.tgt.Name, k, err)
			}
		}(k, sess)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := tr.tracerLoop(ctx); err != nil {
			errc <- fmt.Errorf("loadgen: target %s tracer: %w", tr.tgt.Name, err)
		}
	}()
	go func() {
		defer wg.Done()
		tr.pollLoop(ctx)
	}()
}

// loadLoop replays pre-encoded background bursts, pacing to cfg.Rate.
func (tr *targetRun) loadLoop(ctx context.Context, k int, sess *bgpd.Session) error {
	// Per-session seed so concurrent sessions announce distinct routes.
	rng := rand.New(rand.NewSource(tr.cfg.Seed + int64(tr.index)*1000 + int64(k)))
	raw, n, err := encodeBurst(rng, tr.cfg.BurstSize, tr.cfg.LocalAS, sess.AS4())
	if err != nil {
		return err
	}
	start := time.Now()
	var total uint64
	for {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		if err := sess.SendRaw(raw, n); err != nil {
			if errors.Is(err, bgpd.ErrClosed) && ctx.Err() != nil {
				return nil
			}
			return err
		}
		total += uint64(n)
		tr.sent.Add(uint64(n))
		if tr.cfg.Rate > 0 {
			// Absolute schedule, not per-burst sleeps: drift does not
			// accumulate, and a stalled send is caught up afterwards.
			due := start.Add(time.Duration(float64(total) / tr.cfg.Rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(d):
				}
			}
		}
	}
}

// tracerLoop injects one uniquely-identifiable hijack of the watched
// prefix per interval: origin TracerBase+i is bogus by construction, so
// monitord raises origin-change with Observed == that ASN.
func (tr *targetRun) tracerLoop(ctx context.Context) error {
	tick := time.NewTicker(tr.cfg.TracerInterval)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		asn := tr.cfg.TracerBase + bgp.ASN(i)
		u := &bgp.Update{
			NLRI: []netip.Prefix{tr.cfg.TracerPrefixes[i%len(tr.cfg.TracerPrefixes)]},
			Attrs: bgp.PathAttributes{
				HasOrigin: true, Origin: bgp.OriginIGP,
				HasASPath: true, ASPath: bgp.Sequence(tr.tracer.PeerAS(), asn),
				NextHop: netip.AddrFrom4([4]byte{203, 0, 113, 1}),
			},
		}
		// Stamp before the write: the measurement covers the send path.
		tr.tracers.inject(asn)
		if err := tr.tracer.SendUpdate(u); err != nil {
			if errors.Is(err, bgpd.ErrClosed) && ctx.Err() != nil {
				return nil
			}
			return err
		}
	}
}

// pollLoop drains the target's alert stream, crediting tracer alerts.
func (tr *targetRun) pollLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(tr.cfg.PollInterval):
		}
		tr.pollOnce()
	}
}

func (tr *targetRun) pollOnce() {
	alerts, next, _ := tr.tgt.Alerts.Alerts(tr.cursor, 0)
	tr.cursor = next
	for _, a := range alerts {
		if tr.tracerSet[a.Prefix] {
			tr.tracers.observe(a.Observed)
		}
	}
}

// pollUntilSettled keeps polling through the settle window, returning
// early once every tracer on this target has been seen.
func (tr *targetRun) pollUntilSettled(ctx context.Context) {
	for {
		tr.pollOnce()
		if tr.tracers.settled() {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(tr.cfg.PollInterval):
		}
	}
}

func (tr *targetRun) close() {
	for _, s := range tr.load {
		s.Close()
	}
	if tr.tracer != nil {
		tr.tracer.Close()
	}
}
