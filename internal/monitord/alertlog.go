package monitord

import (
	"sync"

	"quicksand/internal/defense"
	"quicksand/internal/obs"
)

// SeqAlert is a monitor alert stamped with its position in the daemon's
// alert sequence. Sequence numbers start at 0 and never repeat, so a
// client that remembers the cursor returned by /alerts can poll without
// ever seeing an alert twice — and can detect (via Dropped) when it fell
// so far behind that the ring evicted alerts it never saw.
type SeqAlert struct {
	Seq uint64
	defense.Alert
}

// AlertLog is the alert-cursor contract in one place: a fixed-capacity
// circular log of sequenced alerts, shared by the daemon (its alert
// ring) and the fleet router (its merged stream). Appends never block
// and never fail: when full, the oldest alert is evicted and accounted
// as dropped.
type AlertLog struct {
	mu      sync.Mutex
	buf     []SeqAlert
	next    uint64       // sequence number of the next append
	n       int          // live entries: sequences [next-n, next)
	evicted *obs.Counter // bumped when a full ring overwrites its oldest alert
}

// NewAlertLog returns an empty log holding up to capacity alerts;
// evicted (optional) counts alerts overwritten before being read.
func NewAlertLog(capacity int, evicted *obs.Counter) *AlertLog {
	return &AlertLog{buf: make([]SeqAlert, capacity), evicted: evicted}
}

// Append stores a and returns its sequence number, counting the
// eviction when a full ring overwrites its oldest entry.
func (r *AlertLog) Append(a defense.Alert) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.next
	r.buf[seq%uint64(len(r.buf))] = SeqAlert{Seq: seq, Alert: a}
	r.next++
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.evicted.Inc()
	}
	return seq
}

// Since returns up to max alerts with sequence >= cursor, the cursor to
// pass next time, and how many alerts in the requested range were
// evicted before they could be read. max <= 0 means no limit.
//
// A cursor *ahead* of the log's next sequence — a stale client polling
// a daemon that restarted (sequences restart at 0), or a fleet router
// polling a shard that came back empty — is clamped to next: the call
// returns no alerts, next as the new cursor, and dropped == 0. The
// client silently resynchronizes at the live head instead of erroring
// or, worse, waiting forever for sequences that will only be reached
// again after ~cursor more alerts. This is a contract (the fleet
// router's merged vector cursor depends on it), pinned by
// TestRingCursorAheadResync.
func (r *AlertLog) Since(cursor uint64, max int) (alerts []SeqAlert, next uint64, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest := r.next - uint64(r.n)
	if cursor > r.next {
		cursor = r.next
	}
	start := cursor
	if start < oldest {
		dropped = oldest - start
		start = oldest
	}
	for seq := start; seq < r.next; seq++ {
		if max > 0 && len(alerts) >= max {
			break
		}
		alerts = append(alerts, r.buf[seq%uint64(len(r.buf))])
	}
	return alerts, start + uint64(len(alerts)), dropped
}

// Total returns how many alerts have ever been appended.
func (r *AlertLog) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}
