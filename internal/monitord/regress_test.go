package monitord

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/bgpsim"
	"quicksand/internal/obs"
)

// TestFlappingCollectorBoundedDials pins the dialLoop backoff fix: a
// collector that establishes and immediately hangs up (no updates) must
// not reset the exponential backoff, so the redial rate stays bounded
// instead of hot-looping at DialBackoffBase.
func TestFlappingCollectorBoundedDials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	collectorCfg := bgpd.Config{
		ASN: 64501, BGPID: netip.MustParseAddr("203.0.113.1"),
		HoldTime: 3 * time.Second,
	}
	var established atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Flap: complete the handshake, then drop with no updates.
			if s, err := bgpd.Establish(c, collectorCfg); err == nil {
				established.Add(1)
				s.Close()
			} else {
				c.Close()
			}
		}
	}()

	d := newTestDaemon(t, Config{
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		Collectors:      []string{ln.Addr().String()},
		Shards:          2,
		DialBackoffBase: 20 * time.Millisecond,
		// DialHealthyAfter default (30s) is far beyond the window, so no
		// flapping session ever counts as healthy.
	})
	_ = d

	// Exponential backoff from 20ms (jitter in [0.5, 1.5)) admits at most
	// ~7 establishes in 700ms even at minimum jitter; the broken reset
	// admitted dozens. Leave headroom for scheduler noise.
	time.Sleep(700 * time.Millisecond)
	if got := established.Load(); got < 2 || got > 12 {
		t.Errorf("flapping collector saw %d establishes in 700ms, want 2..12 (bounded backoff)", got)
	}
}

// TestEmptyASPathAnnounce pins the nil-vs-empty path distinction: an
// announcement whose AS_PATH attribute is present but has zero segments
// must be stored as a route, not misclassified as a withdrawal.
func TestEmptyASPathAnnounce(t *testing.T) {
	d := newTestDaemon(t, Config{Shards: 2})
	si := d.RegisterSource("test", 64501)
	t0 := time.Unix(1000, 0)

	if err := d.Ingest(si, t0, watchedPrefix, []bgp.ASN{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	e, ok := d.rib.Lookup(watchedPrefix)
	if !ok || len(e.Routes) != 1 {
		t.Fatalf("RIB[%v] = %+v, %v; want one route from the empty-path announce", watchedPrefix, e, ok)
	}
	if e.Routes[0].Path == nil || len(e.Routes[0].Path) != 0 {
		t.Errorf("stored path = %#v, want non-nil empty", e.Routes[0].Path)
	}
	if got := d.met.withdrawals.Value(); got != 0 {
		t.Errorf("withdrawals counter = %d, want 0 (announce, not withdrawal)", got)
	}

	// A real withdrawal (nil path) still removes the route and counts.
	if err := d.Ingest(si, t0.Add(time.Minute), watchedPrefix, nil); err != nil {
		t.Fatalf("Ingest withdraw: %v", err)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	if _, ok := d.rib.Lookup(watchedPrefix); ok {
		t.Error("withdrawal left the route live")
	}
	if got := d.met.withdrawals.Value(); got != 1 {
		t.Errorf("withdrawals counter = %d, want 1", got)
	}
}

// TestEmptyASPathAnnounceWire drives the same distinction through the
// wire decode: an UPDATE with a present-but-empty AS_PATH attribute
// arriving over a real session must land in the RIB as an announcement.
func TestEmptyASPathAnnounceWire(t *testing.T) {
	d := newTestDaemon(t, Config{
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		ListenBGP: "127.0.0.1:0",
		Shards:    2,
	})
	sess := dialDaemon(t, d)
	defer sess.Close()

	if err := sess.SendUpdate(&bgp.Update{
		NLRI: []netip.Prefix{watchedPrefix},
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.ASPath{}, // present, zero segments
			NextHop: netip.MustParseAddr("203.0.113.1"),
		},
	}); err != nil {
		t.Fatalf("SendUpdate: %v", err)
	}
	waitCounter(t, &counterWait{get: d.met.updates.Value, want: 1, what: "updates"})
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	e, ok := d.rib.Lookup(watchedPrefix)
	if !ok || len(e.Routes) != 1 || e.Routes[0].Path == nil || len(e.Routes[0].Path) != 0 {
		t.Fatalf("RIB[%v] = %+v, %v; want one empty-path route", watchedPrefix, e, ok)
	}
	if got := d.met.withdrawals.Value(); got != 0 {
		t.Errorf("withdrawals counter = %d, want 0", got)
	}
}

// TestDroppedNoASPathCounted pins the silent-discard fix: NLRI arriving
// without any AS_PATH attribute is still dropped (there is no path to
// monitor), but now increments monitord_updates_dropped_total.
func TestDroppedNoASPathCounted(t *testing.T) {
	d := newTestDaemon(t, Config{
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		ListenBGP: "127.0.0.1:0",
		Shards:    2,
	})
	sess := dialDaemon(t, d)
	defer sess.Close()

	// No AS_PATH attribute at all — two prefixes, so the counter
	// reflects dropped NLRI, not dropped messages.
	if err := sess.SendUpdate(&bgp.Update{
		NLRI: []netip.Prefix{watchedPrefix, netip.MustParsePrefix("192.0.2.0/24")},
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			NextHop: netip.MustParseAddr("203.0.113.1"),
		},
	}); err != nil {
		t.Fatalf("SendUpdate: %v", err)
	}
	waitCounter(t, &counterWait{get: d.met.droppedNoASPath.Value, want: 2, what: "dropped no-as-path"})
	if _, ok := d.rib.Lookup(watchedPrefix); ok {
		t.Error("pathless NLRI entered the RIB")
	}
	if got := d.met.updates.Value(); got != 0 {
		t.Errorf("updates counter = %d, want 0 (nothing ingested)", got)
	}
}

// TestBatchSizeEquivalence replays the same interception scenario over
// TCP against every dispatcher width × read-batch size and demands
// identical alert streams and final RIBs: batching, runs and sharding are
// transport optimizations and must not change what the monitor sees or
// what /rib serves.
func TestBatchSizeEquivalence(t *testing.T) {
	other := netip.MustParsePrefix("192.0.2.0/24")
	moreSpec := netip.MustParsePrefix("10.0.2.0/24")
	t0 := time.Unix(3000, 0)
	st := &bgpsim.Stream{
		Sessions: []bgpsim.Session{
			bgpsim.NewSession("rrc00", 64501, []netip.Prefix{watchedPrefix, other}),
		},
		Initial: map[int]map[netip.Prefix][]bgp.ASN{0: {
			watchedPrefix: asns(64501, 64500, 64496),
			other:         asns(64501, 64510),
		}},
		Updates: []bgpsim.UpdateEvent{
			{Time: t0, Session: 0, Prefix: watchedPrefix, Path: asns(64501, 666)},
			{Time: t0.Add(time.Minute), Session: 0, Prefix: other, Path: asns(64501, 64511, 64510)},
			{Time: t0.Add(2 * time.Minute), Session: 0, Prefix: moreSpec, Path: asns(64501, 666, 64496)},
			{Time: t0.Add(3 * time.Minute), Session: 0, Prefix: other}, // withdrawal
			{Time: t0.Add(4 * time.Minute), Session: 0, Prefix: watchedPrefix, Path: asns(64501, 667)},
		},
	}
	const wantUpdates = 7 // 2 initial + 5 stream

	// run returns the alert multiset and the final RIB, both as sorted
	// strings of their semantic content (arrival wall-clock differs
	// between runs).
	run := func(shards, readBatch int) (alerts, rib []string) {
		d := newTestDaemon(t, Config{
			Speaker: bgpd.Config{
				ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
				HoldTime: 3 * time.Second,
			},
			ListenBGP: "127.0.0.1:0",
			Shards:    shards,
			ReadBatch: readBatch,
		})
		sess := dialDaemon(t, d)
		defer sess.Close()
		if _, err := bgpd.Replay(sess, st, 0); err != nil {
			t.Fatalf("replay: %v", err)
		}
		waitCounter(t, &counterWait{get: d.met.updates.Value, want: wantUpdates, what: "updates"})
		if !d.WaitQuiesce(5 * time.Second) {
			t.Fatal("pipeline did not quiesce")
		}
		got, _, _ := d.Alerts(0, 0)
		for _, a := range got {
			alerts = append(alerts, a.Prefix.String()+"|"+a.Kind.String()+"|"+a.Observed.String())
		}
		sort.Strings(alerts)
		d.rib.Walk(func(e *RIBEntry) bool {
			for _, rt := range e.Routes {
				rib = append(rib, fmt.Sprintf("%v|%d|%v", e.Prefix, rt.Session, rt.Path))
			}
			return true
		})
		sort.Strings(rib)
		return alerts, rib
	}

	wantAlerts, wantRIB := run(1, 1)
	if len(wantAlerts) == 0 || len(wantRIB) != 2 {
		t.Fatalf("Shards=1 ReadBatch=1: alerts %v, RIB %v; want some alerts and the two live routes", wantAlerts, wantRIB)
	}
	for _, shards := range []int{1, 8, 64} {
		for _, readBatch := range []int{1, 64, 256} {
			alerts, rib := run(shards, readBatch)
			if !equalStrings(alerts, wantAlerts) {
				t.Errorf("Shards=%d ReadBatch=%d: alerts diverge:\n got  %v\n want %v", shards, readBatch, alerts, wantAlerts)
			}
			if !equalStrings(rib, wantRIB) {
				t.Errorf("Shards=%d ReadBatch=%d: final RIB diverges:\n got  %v\n want %v", shards, readBatch, rib, wantRIB)
			}
		}
	}
}

// shardPrefixes returns n distinct /24s under 11.0.0.0/8 that the
// daemon's dispatcher sends to the given shard (want true) or to any
// other shard (want false).
func shardPrefixes(d *Daemon, shard, n int, want bool) []netip.Prefix {
	var out []netip.Prefix
	for i := 0; len(out) < n; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(i >> 8), byte(i), 0}), 24)
		if (d.rib.shardOf(p) == shard) == want {
			out = append(out, p)
		}
	}
	return out
}

// announceAll builds one single-prefix announcement per prefix.
func announceAll(prefixes []netip.Prefix, path ...uint32) []*bgp.Update {
	evs := make([]bgpsim.UpdateEvent, len(prefixes))
	for i, p := range prefixes {
		evs[i] = bgpsim.UpdateEvent{Prefix: p, Path: asns(path...)}
	}
	return benchWire(evs)
}

// queueDepths scrapes the two places an operator reads the backlog:
// monitord_ingest_queue_depth for one shard and /healthz queue_depth.
func queueDepths(t *testing.T, d *Daemon, shard int) (gauge, healthz int) {
	t.Helper()
	_, body := httpGet(t, "http://"+d.HTTPAddr()+"/metrics")
	snap, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := snap.Sum("monitord_ingest_queue_depth", map[string]string{"shard": strconv.Itoa(shard)})
	var h healthResponse
	getJSON(t, "http://"+d.HTTPAddr()+"/healthz", &h)
	return int(v), h.QueueDepth
}

// TestQueueDepthCountsUpdates pins what monitord_ingest_queue_depth and
// /healthz queue_depth count: updates enqueued and not yet processed, not
// channel elements — a whole run is one element, and a run the stalled
// worker has already dequeued is in no channel at all. With the shard's
// RIB lock held, three read batches of five updates must read 15 (channel
// elements would read at most 3), and the scrape itself must not wait for
// the lock.
func TestQueueDepthCountsUpdates(t *testing.T) {
	d := newTestDaemon(t, Config{
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		ListenBGP: "127.0.0.1:0", ListenHTTP: "127.0.0.1:0",
		Shards: 4,
	})
	sess := dialDaemon(t, d)
	defer sess.Close()

	const shard, perBatch, batches = 2, 5, 3
	updates := announceAll(shardPrefixes(d, shard, perBatch*batches, true), 64501, 64510)
	q := &d.shards[shard]
	sh := &d.rib.shards[shard]
	sh.mu.Lock()
	locked := true
	defer func() {
		if locked {
			sh.mu.Unlock()
		}
	}()
	for b := 0; b < batches; b++ {
		// One write per batch, and the next only once the reader has
		// handed this one over, so each is a read batch of its own.
		if err := sess.SendUpdates(updates[b*perBatch : (b+1)*perBatch]); err != nil {
			t.Fatal(err)
		}
		waitCounter(t, &counterWait{get: q.enqueued.Load, want: uint64((b + 1) * perBatch), what: "updates enqueued"})
	}
	if gauge, healthz := queueDepths(t, d, shard); gauge != perBatch*batches || healthz != perBatch*batches {
		t.Errorf("stalled shard: queue depth gauge %d, /healthz %d; want the %d updates sent", gauge, healthz, perBatch*batches)
	}
	if got := d.met.updates.Value(); got != 0 {
		t.Errorf("%d updates ingested while the shard was stalled", got)
	}

	sh.mu.Unlock()
	locked = false
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce after the stall")
	}
	if gauge, healthz := queueDepths(t, d, shard); gauge != 0 || healthz != 0 {
		t.Errorf("after release: queue depth gauge %d, /healthz %d; want 0", gauge, healthz)
	}
	for i := range d.shards {
		if in, done := d.shards[i].enqueued.Load(), d.shards[i].processed.Load(); in != done {
			t.Errorf("shard %d: %d enqueued, %d processed", i, in, done)
		}
	}
	if got := d.met.updates.Value(); got != perBatch*batches {
		t.Errorf("updates ingested = %d, want %d", got, perBatch*batches)
	}
}

// TestStalledShardBackpressure pins the run budget: with one RIB shard
// locked, a peer flooding that shard blocks its own reader with at most
// the session's budget of runs in flight — the backlog and the heap stop
// growing — while a second session to the other shards keeps being
// served; after release every update sent is ingested, the books balance
// and Shutdown leaves no goroutine behind.
func TestStalledShardBackpressure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const shards, readBatch, shard = 4, 16, 1
	d, err := New(Config{
		Watched: map[netip.Prefix]bgp.ASN{watchedPrefix: watchedOrigin},
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 30 * time.Second,
		},
		ListenBGP: "127.0.0.1:0", ListenHTTP: "127.0.0.1:0",
		Shards: shards, ReadBatch: readBatch,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}
	defer shutdown() // idempotent: the early-exit paths still stop the daemon

	const flood = 20000
	budget := runsPerShard * shards * readBatch // updates: every run of the budget full
	if flood < 10*budget {
		t.Fatalf("flood of %d does not dwarf the budget of %d updates", flood, budget)
	}
	stalled := announceAll(shardPrefixes(d, shard, 256, true), 64501, 64510)
	sh := &d.rib.shards[shard]
	sh.mu.Lock()
	locked := true
	defer func() {
		if locked {
			sh.mu.Unlock()
		}
	}()

	flooder := dialDaemon(t, d)
	defer flooder.Close()
	sent := make(chan error, 1)
	go func() { // unthrottled; blocks in the TCP write once the reader stops reading
		for n := 0; n < flood; n += len(stalled) {
			if err := flooder.SendUpdates(stalled[:min(len(stalled), flood-n)]); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()

	// The backlog must stop growing at or under the budget although the
	// peer has far more to send.
	depth := func() int { g, _ := queueDepths(t, d, shard); return g }
	var before runtime.MemStats
	settled, last := 0, -1
	for deadline := time.Now().Add(10 * time.Second); settled < 5; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backlog still moving after 10s (last depth %d)", last)
		}
		if now := depth(); now == last && now > 0 {
			settled++
		} else {
			settled, last = 0, now
		}
		if settled == 1 {
			runtime.GC() // HeapAlloc as live heap: the scrapes' own garbage is not growth
			runtime.ReadMemStats(&before)
		}
	}
	if last > budget {
		t.Errorf("stalled shard holds %d updates, over the session budget of %d", last, budget)
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("heap grew %d bytes while the reader was blocked", grown)
	}

	// Another session, other shards: served while the flooder waits.
	other := dialDaemon(t, d)
	defer other.Close()
	served := announceAll(shardPrefixes(d, shard, 64, false), 64502, 64511)
	if err := other.SendUpdates(served); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &counterWait{get: d.met.updates.Value, want: uint64(len(served)), what: "updates from the unstalled session"})
	if got := depth(); got != last {
		t.Errorf("stalled backlog moved from %d to %d with the lock still held", last, got)
	}

	sh.mu.Unlock()
	locked = false
	if err := <-sent; err != nil {
		t.Fatalf("flooder: %v", err)
	}
	waitCounter(t, &counterWait{get: d.met.updates.Value, want: flood + uint64(len(served)), what: "updates after release"})
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce after release")
	}
	if got := d.met.updates.Value(); got != flood+uint64(len(served)) {
		t.Errorf("updates ingested = %d, want every one of the %d sent", got, flood+len(served))
	}
	flooder.Close()
	other.Close()
	shutdown()
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf.String())
		}
	}
}

// TestRIBOwnsPathStorage pins the ownership rule at its two ends: Ingest
// takes the slice it is handed, and the live RIB copies what it stores —
// so once the pipeline has quiesced, a source that reuses its buffer
// rewrites nothing the daemon serves. (Before the RIB copied, the stored
// route was the caller's slice.)
func TestRIBOwnsPathStorage(t *testing.T) {
	d, base := newHTTPDaemon(t)
	si := d.RegisterSource("reuser", 64502)
	p := netip.MustParsePrefix("198.51.100.0/24")
	buf := asns(64502, 64510, 64520)
	if err := d.Ingest(si, time.Unix(2000, 0), p, buf); err != nil {
		t.Fatal(err)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	buf[0], buf[1], buf[2] = 1, 2, 3 // the source moves on to its next update

	want := asns(64502, 64510, 64520)
	e, ok := d.RIB().Lookup(p)
	if !ok || len(e.Routes) != 1 || !reflect.DeepEqual(e.Routes[0].Path, want) {
		t.Errorf("RIB().Lookup after the caller reused its buffer = %+v, %v; want path %v", e, ok, want)
	}
	var resp ribResponse
	getJSON(t, base+"/rib?prefix="+p.String(), &resp)
	if len(resp.Routes) != 1 || !reflect.DeepEqual(resp.Routes[0].Path, []uint32{64502, 64510, 64520}) {
		t.Errorf("/rib after the caller reused its buffer = %+v; want path %v", resp.Routes, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dialDaemon establishes a loopback BGP session with the daemon's
// listener as a second in-process speaker.
func dialDaemon(t *testing.T, d *Daemon) *bgpd.Session {
	t.Helper()
	conn, err := net.Dial("tcp", d.BGPAddr())
	if err != nil {
		t.Fatalf("dial daemon: %v", err)
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN: 64501, BGPID: netip.MustParseAddr("203.0.113.1"),
		HoldTime: 3 * time.Second,
	})
	if err != nil {
		conn.Close()
		t.Fatalf("establish: %v", err)
	}
	return sess
}

type counterWait struct {
	get  func() uint64
	want uint64
	what string
}

func waitCounter(t *testing.T, w *counterWait) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for w.get() < w.want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", w.what, w.get(), w.want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
