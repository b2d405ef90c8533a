package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
	"quicksand/internal/obs"
)

const replayHijacks = 24

// replayTarget is a started daemon plus the labelled archive to replay
// into it: one imported stream per collector, one live session per
// archived session, and the batch monitor's verdict on the same updates.
type replayTarget struct {
	ch          *child
	streams     []*bgpsim.Stream
	sess        [][]*bgpd.Session // [stream][session]
	establishMS []float64
	exportS     float64

	expected  map[string]int // alert multiset of one pass: "prefix kind observed" -> count
	expectedN int
	recall    float64
	precision float64
}

func alertKey(prefix, kind string, observed uint32) string {
	return fmt.Sprintf("%s %s %d", prefix, kind, observed)
}

func setupReplay(bin, dir string) (*replayTarget, error) {
	w, err := smallWorld()
	if err != nil {
		return nil, err
	}
	tor, watch := torList(w)
	m := smallMonth()
	m.InjectHijacks = replayHijacks
	m.HijackTargets = tor
	sim, err := w.SimulateMonth(m)
	if err != nil {
		return nil, err
	}

	// Through the archive format and back, as an operator replaying
	// collector dumps would.
	t := &replayTarget{expected: make(map[string]int)}
	start := time.Now()
	for _, c := range m.Collectors {
		var rib, upd bytes.Buffer
		if err := sim.ExportRIB(&rib, c.Name); err != nil {
			return nil, err
		}
		if err := sim.ExportUpdates(&upd, c.Name); err != nil {
			return nil, err
		}
		st, err := bgpsim.ImportMRT(&rib, &upd, c.Name)
		if err != nil {
			return nil, err
		}
		t.streams = append(t.streams, st)
	}
	t.exportS = time.Since(start).Seconds()
	if err := t.judge(watch, sim.Attacks, 2*m.ConvergenceDelay); err != nil {
		return nil, err
	}

	watchPath := filepath.Join(dir, "watch.txt")
	if err := writeWatchFile(watchPath, watch); err != nil {
		return nil, err
	}
	if t.ch, err = startChild(bin, "-watch", watchPath); err != nil {
		return nil, err
	}
	for _, st := range t.streams {
		var row []*bgpd.Session
		for si := range st.Sessions {
			start := time.Now()
			sess, err := t.ch.dial(st.Sessions[si].PeerAS, len(t.establishMS))
			if err != nil {
				t.sess = append(t.sess, row)
				t.teardown()
				return nil, err
			}
			t.establishMS = append(t.establishMS, time.Since(start).Seconds()*1e3)
			row = append(row, sess)
		}
		t.sess = append(t.sess, row)
	}
	return t, nil
}

// judge runs the batch monitor over exactly what Replay will send — each
// session's initial table, then its updates — recording the alert
// multiset the daemon must reproduce and scoring it against the
// simulator's ground truth the way RunLiveDetection does.
func (t *replayTarget) judge(watch map[netip.Prefix]bgp.ASN, attacks []bgpsim.AttackEvent, slack time.Duration) error {
	mon, err := defense.NewMonitor(watch)
	if err != nil {
		return err
	}
	inWindow := func(a *bgpsim.AttackEvent, at time.Time) bool {
		return !at.Before(a.Start) && !at.After(a.End.Add(slack))
	}
	visible := make([]bool, len(attacks))
	detected := make([]bool, len(attacks))
	inside := 0
	observe := func(u *bgpsim.UpdateEvent) {
		alerts := mon.Observe(u)
		hit := false
		for ai := range attacks {
			a := &attacks[ai]
			if u.Prefix != a.Prefix || !inWindow(a, u.Time) {
				continue
			}
			if !u.Withdraw() && u.Path[len(u.Path)-1] == a.Attacker {
				visible[ai] = true
			}
			if len(alerts) > 0 {
				detected[ai], hit = true, true
			}
		}
		for _, al := range alerts {
			t.expected[alertKey(al.Prefix.String(), al.Kind.String(), uint32(al.Observed))]++
			t.expectedN++
			if hit {
				inside++
			}
		}
	}
	for _, st := range t.streams {
		for si := range st.Sessions {
			for _, p := range st.Sessions[si].VisiblePrefixes() {
				if path, ok := st.Initial[si][p]; ok {
					observe(&bgpsim.UpdateEvent{Time: st.Start, Session: si, Prefix: p, Path: path})
				}
			}
			for i := range st.Updates {
				if st.Updates[i].Session == si {
					observe(&st.Updates[i])
				}
			}
		}
	}
	nVisible, nDetected := 0, 0
	for ai := range attacks {
		if visible[ai] {
			nVisible++
			if detected[ai] {
				nDetected++
			}
		}
	}
	if nVisible == 0 || t.expectedN == 0 {
		return fmt.Errorf("replay stream shows %d visible attacks and %d alerts: nothing to score", nVisible, t.expectedN)
	}
	t.recall = float64(nDetected) / float64(nVisible)
	t.precision = float64(inside) / float64(t.expectedN)
	return nil
}

func (t *replayTarget) teardown() error {
	_, err := t.stop()
	return err
}

func (t *replayTarget) stop() (time.Duration, error) {
	for _, row := range t.sess {
		for _, s := range row {
			s.Close()
		}
	}
	return t.ch.stop()
}

// pass replays every session at once, as concurrent collectors would,
// started in an order drawn from rng, and returns how many updates went
// out.
func (t *replayTarget) pass(rng *rand.Rand, tr *tracer, trace string, parent int) (int, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	var firstErr error
	type job struct{ stream, session int }
	var jobs []job
	for i := range t.streams {
		for si := range t.sess[i] {
			jobs = append(jobs, job{i, si})
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	for _, j := range jobs {
		st, si, sess := t.streams[j.stream], j.session, t.sess[j.stream][j.session]
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			n, err := bgpd.Replay(sess, st, si)
			tr.add(trace, parent, "replay-session", start, time.Now(), map[string]int64{"updates": int64(n)})
			mu.Lock()
			defer mu.Unlock()
			total += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	return total, firstErr
}

// runReplay is the replay-attacks workload: the labelled small-world
// month, hijacks included, replayed over live sessions again and again
// for the measured window. It scores detection, not speed: each pass's
// alerts must equal the batch monitor's, alert for alert.
func runReplay(rc *runCtx) (*outcome, error) {
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
		func() (*replayTarget, error) { return setupReplay(bin, dir) },
		(*replayTarget).teardown)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			t.stop()
		}
	}()

	res := newOutcome()
	client := keepAliveClient()
	defer client.CloseIdleConnections()
	var cursor uint64
	// collect polls /alerts until want alerts have arrived (or, with want
	// 0, once) and returns their multiset.
	collect := func(want int, deadline time.Time) (map[string]int, int, error) {
		got, n := make(map[string]int), 0
		for {
			body, err := pollAlerts(client, t.ch.httpAddr, cursor)
			if err != nil {
				return nil, 0, err
			}
			if body.Dropped > 0 {
				return nil, 0, fmt.Errorf("alert ring evicted %d alerts unseen", body.Dropped)
			}
			cursor = body.Next
			for _, a := range body.Alerts {
				got[alertKey(a.Prefix, a.Kind, a.ObservedAS)]++
				n++
			}
			if n >= want || time.Now().After(deadline) {
				return got, n, nil
			}
			time.Sleep(pollInterval)
		}
	}

	var passMS, tracedMS, plainMS, cpuUS, rssMB []float64
	var sent int64
	rng := rand.New(rand.NewSource(rc.seed))
	begin := time.Now()
	for p := 0; time.Since(begin) < rc.seconds; p++ {
		tr := rc.tr
		if p%2 == 0 {
			tr = nil // a traced run traces every other pass
		}
		trace := fmt.Sprintf("pass-%d", p)
		cpu0, err := t.ch.cpuSeconds()
		if err != nil {
			return nil, err
		}
		if _, err := t.ch.takePeakRSSMB(); err != nil {
			return nil, err
		}
		start := time.Now()
		type replayed struct {
			n   int
			err error
		}
		done := make(chan replayed, 1)
		root := tr.begin(trace, 0, "pass", start)
		go func() {
			n, err := t.pass(rng, tr, trace, root)
			done <- replayed{n, err}
		}()
		// Poll while the replay runs, so a burst of alerts cannot lap the
		// daemon's alert ring before anyone reads it.
		got, _, err := collect(t.expectedN, start.Add(20*time.Second))
		alerted := time.Now()
		r := <-done
		if r.err != nil {
			return nil, fmt.Errorf("replay: %w\n%s", r.err, t.ch.tail())
		}
		if err != nil {
			return nil, err
		}
		n, end := r.n, time.Now()
		tr.add(trace, root, "alerts", start, alerted, map[string]int64{"alerts": int64(t.expectedN)})
		tr.end(root, end, map[string]int64{"updates": int64(n)})
		sent += int64(n)
		if cpu1, err := t.ch.cpuSeconds(); err == nil {
			cpuUS = append(cpuUS, (cpu1-cpu0)*1e6/float64(n))
		}
		if mb, err := t.ch.takePeakRSSMB(); err == nil {
			rssMB = append(rssMB, mb)
		}
		ms := end.Sub(start).Seconds() * 1e3
		passMS = append(passMS, ms)
		if tr != nil {
			tracedMS = append(tracedMS, ms)
		} else {
			plainMS = append(plainMS, ms)
		}
		if diff := diffMultiset(t.expected, got); diff != "" {
			res.failed++
			res.failf("pass %d: live alerts differ from the batch monitor's: %s", p, diff)
		}
	}
	elapsed := time.Since(begin)
	// Anything the daemon raised beyond the batch monitor's verdict would
	// still be sitting in the ring.
	extra, nExtra, err := collect(0, time.Now())
	if err != nil {
		return nil, err
	}
	if nExtra > 0 {
		res.failed += int64(nExtra)
		res.failf("%d alerts beyond the batch monitor's: %s", nExtra, diffMultiset(nil, extra))
	}
	bk, _, err := awaitBooks(t.ch, 0, sent)
	if err != nil {
		return nil, err
	}
	if diff := float64(sent) - bk.accounted(); diff != 0 || bk.dropped > 0 {
		res.failed += int64(math.Abs(diff) + bk.dropped)
		res.failf("books do not balance: sent %d, daemon ingested %.0f and dropped %.0f", sent, bk.ingested, bk.dropped)
	}
	var snap *obs.Snapshot
	var parseUS float64
	if rc.tr != nil {
		if snap, _, parseUS, err = timedScrape(t.ch); err != nil {
			return nil, err
		}
	}
	drain, stopErr := t.stop()
	stopped = true
	if stopErr != nil {
		res.failf("%v", stopErr)
	}

	res.attempted = sent
	res.e2e["setup_s"] = setupS
	res.e2e["latency_p50_ms"] = rc.quiet("latency_p50_ms", passMS)
	res.e2e["cpu_us_per_unit"] = rc.quiet("cpu_us_per_unit", cpuUS)
	rc.logf("peak_rss_mb by slice %.4g", rssMB)
	res.e2e["peak_rss_mb"] = pct(rssMB, 50)
	rc.logf("%d passes of %d updates, %d alerts each; recall %.3f precision %.3f",
		len(passMS), sent/int64(len(passMS)), t.expectedN, t.recall, t.precision)
	if rc.tr == nil {
		return res, nil
	}
	ly := res.layer
	ly["detect.recall"] = t.recall
	ly["detect.precision"] = t.precision
	ly["mrt.export_import_s"] = t.exportS
	ly["bgpd.establish_ms"] = mean(t.establishMS)
	ly["harness.updates_per_s"] = float64(sent) / elapsed.Seconds()
	tracingOverhead(ly, tracedMS, plainMS)
	childHistograms(snap, ly)
	ly["monitord.shutdown_drain_ms"] = drain.Seconds() * 1e3
	ly["obs.parse_exposition_us"] = parseUS
	return res, nil
}

// diffMultiset describes how got departs from want, or returns "".
func diffMultiset(want, got map[string]int) string {
	var b bytes.Buffer
	shown := 0
	note := func(format string, args ...any) {
		if shown++; shown <= 3 {
			fmt.Fprintf(&b, format, args...)
		}
	}
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			note("[%s: want %d, got %d] ", k, want[k], got[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			note("[%s: unexpected ×%d] ", k, got[k])
		}
	}
	if shown > 3 {
		fmt.Fprintf(&b, "and %d more", shown-3)
	}
	return b.String()
}
