package monitord

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/defense"
	"quicksand/internal/mrt"
)

// snapshotArchive builds a TABLE_DUMP_V2 snapshot holding the watched
// prefix as seen by two peers — one benign, one with a hijacked origin —
// plus one entry pointing at a peer index outside the table and one
// carrying no AS_PATH.
func snapshotArchive(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	ts := time.Unix(3000, 0)
	if err := w.WritePeerIndexTable(ts, &mrt.PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("203.0.113.9"),
		ViewName:       "snap",
		Peers: []mrt.Peer{
			{BGPID: netip.MustParseAddr("192.0.2.1"), IP: netip.MustParseAddr("192.0.2.1"), AS: 64501},
			{BGPID: netip.MustParseAddr("192.0.2.2"), IP: netip.MustParseAddr("192.0.2.2"), AS: 64502},
		},
	}); err != nil {
		t.Fatal(err)
	}
	attrs := func(path ...bgp.ASN) bgp.PathAttributes {
		return bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(path...),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		}
	}
	if err := w.WriteRIB(ts, &mrt.RIBIPv4Unicast{
		Sequence: 0,
		Prefix:   watchedPrefix,
		Entries: []mrt.RIBEntry{
			{PeerIndex: 0, OriginatedTime: ts, Attrs: attrs(64501, 64500, 64496)},
			{PeerIndex: 1, OriginatedTime: ts, Attrs: attrs(64502, 666)},
			{PeerIndex: 7, OriginatedTime: ts, Attrs: attrs(64503, 64496)},
			{PeerIndex: 0, OriginatedTime: ts, Attrs: bgp.PathAttributes{
				HasOrigin: true, Origin: bgp.OriginIGP, NextHop: netip.MustParseAddr("192.0.2.1"),
			}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngestRIBSnapshot(t *testing.T) {
	d := newTestDaemon(t, Config{UpstreamAlarms: true})
	stats, err := d.IngestMRT(bytes.NewReader(snapshotArchive(t)), "snap.mrt")
	if err != nil {
		t.Fatalf("IngestMRT: %v", err)
	}
	if want := (MRTStats{Records: 2, Updates: 2, Sessions: 2, Skipped: 1, NoASPath: 1}); *stats != want {
		t.Errorf("stats = %+v, want %+v", *stats, want)
	}
	// Delivered or in a drop counter: the entry without an AS_PATH is
	// counted where a live session's would be.
	if got := d.met.droppedNoASPath.Value(); got != 1 {
		t.Errorf("no-as-path drop counter = %d, want 1", got)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}

	entry, ok := d.RIB().Lookup(watchedPrefix)
	if !ok || len(entry.Routes) != 2 {
		t.Fatalf("RIB after snapshot = %+v, ok=%v", entry, ok)
	}
	for _, r := range entry.Routes {
		if !r.Updated.Equal(time.Unix(3000, 0)) {
			t.Errorf("route timestamp %v, want snapshot time", r.Updated)
		}
	}

	// A poisoned snapshot must alarm like live updates would: the
	// hijacked origin, plus a new-upstream alarm for the benign path
	// because alarms are armed with nothing learned yet.
	alerts, _, dropped := d.Alerts(0, 100)
	byKind := make(map[defense.AlertKind]defense.Alert)
	for _, a := range alerts {
		byKind[a.Kind] = a.Alert
	}
	if dropped != 0 || len(alerts) != 2 {
		t.Fatalf("alerts = %+v (dropped %d)", alerts, dropped)
	}
	if a, ok := byKind[defense.AlertOriginChange]; !ok || a.Observed != bgp.ASN(666) {
		t.Errorf("origin-change alert = %+v, ok=%v", a, ok)
	}
	if a, ok := byKind[defense.AlertNewUpstream]; !ok || a.Observed != bgp.ASN(64500) {
		t.Errorf("new-upstream alert = %+v, ok=%v", a, ok)
	}
}
