package monitord

import (
	"net/netip"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/defense"
	"quicksand/internal/obs"
)

func mkAlert(i int) defense.Alert {
	return defense.Alert{
		Session:  i,
		Prefix:   netip.MustParsePrefix("10.0.0.0/16"),
		Kind:     defense.AlertOriginChange,
		Observed: bgp.ASN(666),
	}
}

func TestRingSequencesAndEviction(t *testing.T) {
	evicted := obs.NewRegistry().Counter("monitord_test_evicted_total", "evictions")
	r := NewAlertLog(4, evicted)
	for i := 0; i < 6; i++ {
		if seq := r.Append(mkAlert(i)); seq != uint64(i) {
			t.Fatalf("append %d: seq = %d", i, seq)
		}
	}
	if got := r.Total(); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	if got := evicted.Value(); got != 2 {
		t.Fatalf("eviction counter = %d, want 2 (capacity 4, 6 appended)", got)
	}

	alerts, next, dropped := r.Since(0, 0)
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2 (capacity 4, 6 appended)", dropped)
	}
	if len(alerts) != 4 {
		t.Fatalf("got %d alerts, want 4", len(alerts))
	}
	for i, a := range alerts {
		if a.Seq != uint64(2+i) {
			t.Errorf("alerts[%d].Seq = %d, want %d", i, a.Seq, 2+i)
		}
		if a.Session != 2+i {
			t.Errorf("alerts[%d].Session = %d, want %d (evicted entry leaked)", i, a.Session, 2+i)
		}
	}
	if next != 6 {
		t.Errorf("next = %d, want 6", next)
	}
}

func TestRingSinceCursorSemantics(t *testing.T) {
	r := NewAlertLog(8, nil) // nil eviction counter: accounting is optional
	for i := 0; i < 5; i++ {
		r.Append(mkAlert(i))
	}

	// Resuming from a cursor returns only newer alerts.
	alerts, next, dropped := r.Since(3, 0)
	if dropped != 0 || len(alerts) != 2 || alerts[0].Seq != 3 || next != 5 {
		t.Errorf("since(3) = %d alerts (first seq %v), next %d, dropped %d; want 2, 3, 5, 0",
			len(alerts), alerts, next, dropped)
	}

	// max caps the page; next points at the first unreturned alert.
	alerts, next, _ = r.Since(0, 2)
	if len(alerts) != 2 || next != 2 {
		t.Errorf("since(0, max=2) = %d alerts, next %d; want 2, 2", len(alerts), next)
	}

	// A cursor from the future clamps to the present.
	alerts, next, dropped = r.Since(100, 0)
	if len(alerts) != 0 || next != 5 || dropped != 0 {
		t.Errorf("since(100) = %d alerts, next %d, dropped %d; want 0, 5, 0", len(alerts), next, dropped)
	}

	// Polling with the returned cursor never re-reads.
	r.Append(mkAlert(5))
	alerts, _, _ = r.Since(next, 0)
	if len(alerts) != 1 || alerts[0].Seq != 5 {
		t.Errorf("poll after append = %v, want exactly seq 5", alerts)
	}
}

// TestRingCursorAheadResync pins the ahead-of-head cursor contract that
// Daemon.Alerts documents: a stale client holding a cursor from before a
// daemon restart (sequences restart at 0) clamps to the live head with
// no alerts and no drops, then resumes normally from the returned
// cursor. The fleet router's merged vector cursor relies on exactly this
// to survive a shard restart without wedging or double-reading.
func TestRingCursorAheadResync(t *testing.T) {
	// A client reads up to seq 42 on the old incarnation...
	old := NewAlertLog(8, nil)
	for i := 0; i < 42; i++ {
		old.Append(mkAlert(i))
	}
	_, cursor, _ := old.Since(0, 0)
	if cursor != 42 {
		t.Fatalf("old-incarnation cursor = %d, want 42", cursor)
	}

	// ...then the daemon restarts: a fresh, empty ring.
	fresh := NewAlertLog(8, nil)
	alerts, next, dropped := fresh.Since(cursor, 0)
	if len(alerts) != 0 || next != 0 || dropped != 0 {
		t.Fatalf("ahead cursor on empty ring: %d alerts, next %d, dropped %d; want 0, 0, 0",
			len(alerts), next, dropped)
	}

	// The new incarnation has produced a few alerts of its own: an ahead
	// cursor must clamp to the head, not replay them.
	for i := 0; i < 3; i++ {
		fresh.Append(mkAlert(i))
	}
	alerts, next, dropped = fresh.Since(cursor, 0)
	if len(alerts) != 0 || next != 3 || dropped != 0 {
		t.Fatalf("ahead cursor on live ring: %d alerts, next %d, dropped %d; want 0, 3, 0",
			len(alerts), next, dropped)
	}

	// Adopting the returned cursor resynchronizes the stream.
	fresh.Append(mkAlert(3))
	alerts, next, dropped = fresh.Since(next, 0)
	if len(alerts) != 1 || alerts[0].Seq != 3 || next != 4 || dropped != 0 {
		t.Fatalf("resumed poll = %v (next %d, dropped %d), want exactly seq 3", alerts, next, dropped)
	}
}
