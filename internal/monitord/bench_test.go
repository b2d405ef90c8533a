package monitord

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/bgpsim"
)

// benchUpdates pre-generates a realistic ingest mix: mostly background
// churn over a few thousand prefixes, a sliver of watched-prefix
// announcements, and occasional hijacks that exercise the alert path.
func benchUpdates(n int) []bgpsim.UpdateEvent {
	rng := rand.New(rand.NewSource(1))
	prefixes := make([]netip.Prefix, 4096)
	for i := range prefixes {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], 0x0B000000|uint32(i)<<8) // 11.x.y.0/24
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4(a), 24)
	}
	paths := make([][]bgp.ASN, 64)
	for i := range paths {
		paths[i] = asns(64501, uint32(65000+rng.Intn(500)), uint32(64900+rng.Intn(50)))
	}
	evs := make([]bgpsim.UpdateEvent, n)
	for i := range evs {
		switch {
		case i%97 == 0: // watched prefix, benign
			evs[i] = bgpsim.UpdateEvent{Prefix: watchedPrefix, Path: asns(64501, 64500, 64496)}
		case i%997 == 0: // watched prefix, hijacked
			evs[i] = bgpsim.UpdateEvent{Prefix: watchedPrefix, Path: asns(64501, 666)}
		case i%13 == 0: // withdrawal
			evs[i] = bgpsim.UpdateEvent{Prefix: prefixes[rng.Intn(len(prefixes))]}
		default:
			evs[i] = bgpsim.UpdateEvent{Prefix: prefixes[rng.Intn(len(prefixes))], Path: paths[rng.Intn(len(paths))]}
		}
	}
	return evs
}

// benchWire renders benchUpdates as the UPDATEs a peer would send.
func benchWire(evs []bgpsim.UpdateEvent) []*bgp.Update {
	updates := make([]*bgp.Update, len(evs))
	for i, ev := range evs {
		u := &bgp.Update{}
		if ev.Withdraw() {
			u.Withdrawn = []netip.Prefix{ev.Prefix}
		} else {
			u.NLRI = []netip.Prefix{ev.Prefix}
			u.Attrs = bgp.PathAttributes{
				HasOrigin: true, Origin: bgp.OriginIGP,
				HasASPath: true, ASPath: bgp.Sequence(ev.Path...),
				NextHop: netip.MustParseAddr("203.0.113.1"),
			}
		}
		updates[i] = u
	}
	return updates
}

// benchSession starts a daemon listening on loopback (ReadBatch 256) and
// dials one established session into it.
func benchSession(tb testing.TB) (*Daemon, *bgpd.Session) {
	tb.Helper()
	d, err := New(Config{
		Watched: map[netip.Prefix]bgp.ASN{watchedPrefix: watchedOrigin},
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
		},
		ListenBGP: "127.0.0.1:0",
		Shards:    8,
		ReadBatch: 256,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Shutdown(context.Background()) })
	conn, err := net.Dial("tcp", d.BGPAddr())
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN: 64501, BGPID: netip.MustParseAddr("203.0.113.1"),
	})
	if err != nil {
		conn.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sess.Close() })
	return d, sess
}

// waitIngested blocks until the daemon has ingested n updates.
func waitIngested(tb testing.TB, d *Daemon, n uint64) {
	tb.Helper()
	deadline := time.Now().Add(time.Minute)
	for d.met.updates.Value() < n {
		if time.Now().After(deadline) {
			tb.Fatalf("daemon ingested %d/%d", d.met.updates.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionPathSteadyStateAllocs is the allocation budget of the path
// that ships: a real loopback session fed pre-encoded bursts of the
// benchmark mix (announce, re-announce, withdraw, hijack) through decode,
// the session sink's runs, the shard workers, the live RIB and the
// monitor. After one warm-up pass — runs made, RIB storage grown — the
// whole process may allocate at most once per twenty updates; before the
// RIB owned its paths and runs were recycled it allocated more than once
// per update.
func TestSessionPathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d, sess := benchSession(t)
	const burst = 256
	updates := benchWire(benchUpdates(1 << 14))
	var bursts [][]byte
	for off := 0; off < len(updates); off += burst {
		var raw []byte
		for _, u := range updates[off : off+burst] {
			var err error
			if raw, err = u.AppendMessage(raw, sess.AS4()); err != nil {
				t.Fatal(err)
			}
		}
		bursts = append(bursts, raw)
	}
	sent := uint64(0)
	pass := func() {
		for _, raw := range bursts {
			if err := sess.SendRaw(raw, burst); err != nil {
				t.Fatal(err)
			}
			sent += burst
		}
		waitIngested(t, d, sent)
	}
	pass() // warm-up

	const passes = 13 // × 16384 ≥ 200 000 updates
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	n := float64(passes * len(updates))
	perUpdate := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.4f allocations per update over %.0f updates", perUpdate, n)
	if perUpdate > 0.05 {
		t.Errorf("session path allocates %.3f times per update over %.0f updates, want at most 0.05", perUpdate, n)
	}
}

// BenchmarkMonitordIngest measures pipeline throughput (dispatch → live
// RIB → streaming monitor → alert ring) via the in-process Ingest path,
// reporting updates/sec. This is the ceiling a BGP session can drive.
func BenchmarkMonitordIngest(b *testing.B) {
	d, err := New(Config{
		Watched: map[netip.Prefix]bgp.ASN{watchedPrefix: watchedOrigin},
		Shards:  8,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	si := d.RegisterSource("bench", 64501)
	evs := benchUpdates(1 << 16)
	t0 := time.Unix(0, 0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &evs[i&(len(evs)-1)]
		d.Ingest(si, t0, ev.Prefix, ev.Path)
	}
	if !d.WaitQuiesce(time.Minute) {
		b.Fatal("pipeline did not quiesce")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
}

// BenchmarkMonitordIngestTCP measures the same pipeline fed through a
// real loopback BGP session — wire encode, TCP, decode, dispatch, RIB,
// monitor — i.e. the full session path of the serve subcommand.
func BenchmarkMonitordIngestTCP(b *testing.B) {
	d, sess := benchSession(b)
	updates := benchWire(benchUpdates(1 << 14))

	// Send in bursts through SendUpdates, as a replaying collector
	// would: the receive side drains each burst through the batched
	// session reader (RecvUpdateBatch) into per-shard runs.
	const sendBatch = 256
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		off := sent & (len(updates) - 1)
		n := sendBatch
		if b.N-sent < n {
			n = b.N - sent
		}
		if off+n > len(updates) {
			n = len(updates) - off
		}
		if err := sess.SendUpdates(updates[off : off+n]); err != nil {
			b.Fatalf("send at %d: %v", sent, err)
		}
		sent += n
	}
	// Wait for the daemon to absorb everything sent.
	waitIngested(b, d, uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
}
