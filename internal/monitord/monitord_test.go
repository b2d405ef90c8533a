package monitord

import (
	"bytes"
	"context"
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/defense"
	"quicksand/internal/mrt"
)

var (
	watchedPrefix = netip.MustParsePrefix("10.0.0.0/16")
	watchedOrigin = bgp.ASN(64496)
)

// newTestDaemon starts a daemon with no listeners: updates enter through
// RegisterSource/Ingest only.
func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.Watched == nil {
		cfg.Watched = map[netip.Prefix]bgp.ASN{watchedPrefix: watchedOrigin}
	}
	cfg.Logf = t.Logf
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return d
}

func TestDaemonRejectsEmptyWatchlist(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no watched prefixes succeeded")
	}
}

func TestDaemonIngestDetectsHijacks(t *testing.T) {
	d := newTestDaemon(t, Config{Shards: 4})
	si := d.RegisterSource("test", 64501)
	t0 := time.Unix(1000, 0)

	// Benign announcement: expected origin, no alert.
	if err := d.Ingest(si, t0, watchedPrefix, asns(64501, 64500, 64496)); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	// Same-prefix hijack: origin change.
	d.Ingest(si, t0.Add(time.Minute), watchedPrefix, asns(64501, 666))
	// More-specific hijack of the watched prefix.
	moreSpec := netip.MustParsePrefix("10.0.1.0/24")
	d.Ingest(si, t0.Add(2*time.Minute), moreSpec, asns(64501, 666))
	// Unrelated prefix: no alert.
	d.Ingest(si, t0.Add(3*time.Minute), netip.MustParsePrefix("192.0.2.0/24"), asns(64501, 64510))

	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}

	alerts, next, dropped := d.Alerts(0, 0)
	if dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	if len(alerts) != 2 || next != 2 {
		t.Fatalf("got %d alerts (next %d), want 2: %+v", len(alerts), next, alerts)
	}
	// The two hijacked prefixes hash to different shards, so sequence
	// order between them is not defined; match by kind.
	byKind := make(map[defense.AlertKind]defense.Alert)
	for _, a := range alerts {
		byKind[a.Kind] = a.Alert
	}
	if a, ok := byKind[defense.AlertOriginChange]; !ok || a.Observed != 666 {
		t.Errorf("origin-change alert = %+v, want by AS666", a)
	}
	if a, ok := byKind[defense.AlertMoreSpecific]; !ok || a.Prefix != moreSpec {
		t.Errorf("more-specific alert = %+v, want for %v", a, moreSpec)
	}

	// The live RIB reflects the last state of every prefix.
	if e, ok := d.rib.Lookup(watchedPrefix); !ok || len(e.Routes) != 1 || e.Routes[0].Path[1] != 666 {
		t.Errorf("RIB[%v] = %+v, %v; want the hijacked path", watchedPrefix, e, ok)
	}
	if d.rib.Size() != 3 {
		t.Errorf("RIB size = %d, want 3", d.rib.Size())
	}
	if got := d.met.updates.Value(); got != 4 {
		t.Errorf("updates counter = %d, want 4", got)
	}
	if got := d.met.alerts[defense.AlertOriginChange].Value(); got != 1 {
		t.Errorf("origin-change counter = %d, want 1", got)
	}
}

func TestDaemonLearningWindow(t *testing.T) {
	// LearnUpdates=2: the first two updates train upstream sets silently,
	// then upstream alarms arm. All updates hit one prefix, hence one
	// shard, so ordering through the window is deterministic.
	d := newTestDaemon(t, Config{Shards: 4, LearnUpdates: 2})
	si := d.RegisterSource("test", 64501)
	t0 := time.Unix(1000, 0)

	d.Ingest(si, t0, watchedPrefix, asns(64501, 64500, 64496))
	d.Ingest(si, t0, watchedPrefix, asns(64501, 64505, 64496))
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	if n := d.rng.Total(); n != 0 {
		t.Fatalf("learning window raised %d alerts", n)
	}

	// Known upstream (64500): quiet. Unknown upstream (64777): alarm.
	d.Ingest(si, t0.Add(time.Minute), watchedPrefix, asns(64501, 64500, 64496))
	d.Ingest(si, t0.Add(2*time.Minute), watchedPrefix, asns(64501, 64777, 64496))
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	alerts, _, _ := d.Alerts(0, 0)
	if len(alerts) != 1 || alerts[0].Kind != defense.AlertNewUpstream || alerts[0].Observed != 64777 {
		t.Fatalf("after window: alerts = %+v, want one new-upstream by AS64777", alerts)
	}
}

func TestDaemonIngestUnknownSession(t *testing.T) {
	d := newTestDaemon(t, Config{Shards: 2})
	if err := d.Ingest(42, time.Now(), watchedPrefix, asns(1, 2)); err == nil {
		t.Fatal("Ingest on unregistered session succeeded")
	}
}

func TestDaemonShutdownIdempotent(t *testing.T) {
	d := newTestDaemon(t, Config{Shards: 2})
	ctx := context.Background()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// mrtArchive builds a BGP4MP archive with one benign announcement from
// peer A, one hijacked announcement from peer B, and a state change.
func mrtArchive(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	ts := time.Unix(2000, 0)
	msg := func(peerIP string, peerAS bgp.ASN, path []bgp.ASN) *mrt.BGP4MPMessage {
		u := bgp.Update{
			NLRI: []netip.Prefix{watchedPrefix},
			Attrs: bgp.PathAttributes{
				HasOrigin: true, Origin: bgp.OriginIGP,
				HasASPath: true, ASPath: bgp.Sequence(path...),
				NextHop: netip.MustParseAddr(peerIP),
			},
		}
		raw, err := u.Marshal(true)
		if err != nil {
			t.Fatalf("marshal update: %v", err)
		}
		return &mrt.BGP4MPMessage{
			PeerAS: peerAS, LocalAS: 12654, AS4: true,
			PeerIP:  netip.MustParseAddr(peerIP),
			LocalIP: netip.MustParseAddr("198.51.100.1"),
			Data:    raw,
		}
	}
	if err := w.WriteMessage(ts, msg("192.0.2.1", 64501, asns(64501, 64500, 64496))); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMessage(ts.Add(time.Minute), msg("192.0.2.2", 64502, asns(64502, 666))); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStateChange(ts.Add(2*time.Minute), &mrt.BGP4MPStateChange{
		PeerAS: 64501, LocalAS: 12654, AS4: true,
		PeerIP:   netip.MustParseAddr("192.0.2.1"),
		LocalIP:  netip.MustParseAddr("198.51.100.1"),
		OldState: mrt.StateEstablished, NewState: mrt.StateIdle,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngestMRT(t *testing.T) {
	d := newTestDaemon(t, Config{Shards: 4})
	stats, err := d.IngestMRT(bytes.NewReader(mrtArchive(t)), "test.mrt")
	if err != nil {
		t.Fatalf("IngestMRT: %v", err)
	}
	if stats.Records != 3 || stats.Updates != 2 || stats.Sessions != 2 {
		t.Errorf("stats = %+v, want 3 records / 2 updates / 2 sessions", stats)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}

	// Two peers, two live routes for the watched prefix; the archive's
	// record timestamps are preserved on the routes.
	e, ok := d.rib.Lookup(watchedPrefix)
	if !ok || len(e.Routes) != 2 {
		t.Fatalf("RIB[%v] = %+v, %v; want 2 routes", watchedPrefix, e, ok)
	}
	for _, rt := range e.Routes {
		if rt.Updated.Unix() != 2000 && rt.Updated.Unix() != 2060 {
			t.Errorf("route %+v lost its archive timestamp", rt)
		}
	}
	alerts, _, _ := d.Alerts(0, 0)
	if len(alerts) != 1 || alerts[0].Kind != defense.AlertOriginChange {
		t.Fatalf("alerts = %+v, want one origin-change from the poisoned peer", alerts)
	}
	if got := d.met.mrtRecords.Value(); got != 3 {
		t.Errorf("mrt records counter = %d, want 3", got)
	}
}
