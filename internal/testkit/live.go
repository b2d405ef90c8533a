package testkit

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
	"quicksand/internal/monitord"
)

// batchAlerts runs the reference: defense.RunMonitor with learnFraction
// 0 over the whole stream.
func batchAlerts(st *bgpsim.Stream, watched map[netip.Prefix]bgp.ASN) (*defense.MonitorReport, error) {
	bm, err := defense.NewMonitor(watched)
	if err != nil {
		return nil, err
	}
	return defense.RunMonitor(bm, st, 0)
}

// alertBuffer sizes every alert ring so nothing is evicted mid-check.
func alertBuffer(st *bgpsim.Stream, rep *defense.MonitorReport) int {
	return len(st.Updates) + len(rep.Alerts) + 16
}

// checkLiveAlerts feeds the stream through live — a daemon with or
// without Config.DropUnwatched, one checker for both — and requires its alert multiset to equal
// the batch report's exactly, session ids and semantic timestamps
// included.
//
// With learnFraction 0 the monitor's learned state stays empty, so
// Observe is pure and alert generation is order-independent — which is
// what makes the comparison sound despite the live side's concurrency.
func checkLiveAlerts(live *monitord.Daemon, st *bgpsim.Stream, rep *defense.MonitorReport) error {
	for si := range st.Sessions {
		s := &st.Sessions[si]
		if id := live.RegisterSource(s.Collector, s.PeerAS); id != si {
			return fmt.Errorf("source %d registered as session %d", si, id)
		}
	}
	for i := range st.Updates {
		u := &st.Updates[i]
		if err := live.Ingest(u.Session, u.Time, u.Prefix, u.Path); err != nil {
			return fmt.Errorf("ingest update %d: %w", i, err)
		}
	}
	if !live.WaitQuiesce(time.Minute) {
		return fmt.Errorf("live pipeline did not quiesce")
	}
	key := func(a defense.Alert) string {
		return fmt.Sprintf("%d|%v|%v|%v|%d", a.Session, a.Prefix, a.Kind, a.Observed, a.Time.UnixNano())
	}
	counts := make(map[string]int, len(rep.Alerts))
	for _, a := range rep.Alerts {
		counts[key(a)]++
	}
	alerts, _, dropped := live.Alerts(0, 0)
	if dropped != 0 {
		return fmt.Errorf("alert ring evicted %d alerts despite sized buffer", dropped)
	}
	for _, a := range alerts {
		counts[key(a.Alert)]--
		if counts[key(a.Alert)] < 0 {
			return fmt.Errorf("live run raised alert absent from batch run: %+v", a.Alert)
		}
	}
	for k, n := range counts {
		if n != 0 {
			return fmt.Errorf("batch alert missing from live run (%d×): %s", n, k)
		}
	}
	return nil
}

// CheckMonitordEquivalence differentially tests the streaming monitord
// pipeline against the batch monitor it was grown from: feeding a
// stream's updates through a live daemon (sharded dispatch) must yield
// exactly the alert multiset of defense.RunMonitor with learnFraction 0
// over the same stream, and a final live RIB equal to the
// order-insensitive per-(session, prefix) fold of the updates. The RIB
// fold is sound because the dispatcher hashes every update for a prefix
// to the same shard, preserving arrival order per (session, prefix).
func CheckMonitordEquivalence(st *bgpsim.Stream, watched map[netip.Prefix]bgp.ASN, shards int) error {
	rep, err := batchAlerts(st, watched)
	if err != nil {
		return err
	}
	d, err := monitord.New(monitord.Config{
		Watched:        watched,
		Shards:         shards,
		UpstreamAlarms: true, // matches RunMonitor's EnableUpstream at split 0
		AlertBuffer:    alertBuffer(st, rep),
	})
	if err != nil {
		return err
	}
	defer d.Shutdown(context.Background())
	if err := checkLiveAlerts(d, st, rep); err != nil {
		return err
	}
	return checkRIBFold(d, st)
}

// CheckFleetEquivalence is the same differential check through a daemon
// of n dispatcher shards under Config.DropUnwatched (serve -fleet):
// dropping every update defense.Monitor.Relevant rejects before the RIB
// loses no alert the batch monitor raises, and invents none. Those
// updates raise nothing in the batch run either, by the rule's
// definition; the rest take the daemon's own path. Session ids match
// because the daemon registers the stream's sessions in order, and
// timestamps because in-process ingest keeps the caller's timestamp.
func CheckFleetEquivalence(st *bgpsim.Stream, watched map[netip.Prefix]bgp.ASN, n int) error {
	rep, err := batchAlerts(st, watched)
	if err != nil {
		return err
	}
	d, err := monitord.New(monitord.Config{
		Watched:        watched,
		Shards:         n,
		DropUnwatched:  true,
		UpstreamAlarms: true, // matches RunMonitor's EnableUpstream at split 0
		AlertBuffer:    alertBuffer(st, rep),
	})
	if err != nil {
		return err
	}
	defer d.Shutdown(context.Background())
	return checkLiveAlerts(d, st, rep)
}

// checkRIBFold requires the daemon's live RIB to equal the last-write
// fold of the update stream.
func checkRIBFold(d *monitord.Daemon, st *bgpsim.Stream) error {
	rib := d.RIB()
	want := make(map[netip.Prefix]map[int][]bgp.ASN)
	for i := range st.Updates {
		u := &st.Updates[i]
		if u.Withdraw() {
			if m := want[u.Prefix]; m != nil {
				delete(m, u.Session)
				if len(m) == 0 {
					delete(want, u.Prefix)
				}
			}
			continue
		}
		m := want[u.Prefix]
		if m == nil {
			m = make(map[int][]bgp.ASN)
			want[u.Prefix] = m
		}
		m[u.Session] = u.Path
	}
	if got := rib.Size(); got != len(want) {
		return fmt.Errorf("live RIB holds %d prefixes, fold expects %d", got, len(want))
	}
	var walkErr error
	rib.Walk(func(e *monitord.RIBEntry) bool {
		wantRoutes, ok := want[e.Prefix]
		if !ok {
			walkErr = fmt.Errorf("live RIB holds %v, absent from fold", e.Prefix)
			return false
		}
		if len(e.Routes) != len(wantRoutes) {
			walkErr = fmt.Errorf("live RIB %v: %d routes, fold expects %d", e.Prefix, len(e.Routes), len(wantRoutes))
			return false
		}
		for _, rt := range e.Routes {
			wp, ok := wantRoutes[rt.Session]
			if !ok {
				walkErr = fmt.Errorf("live RIB %v session %d absent from fold", e.Prefix, rt.Session)
				return false
			}
			if len(rt.Path) != len(wp) {
				walkErr = fmt.Errorf("live RIB %v session %d path %v, fold expects %v", e.Prefix, rt.Session, rt.Path, wp)
				return false
			}
			for i := range wp {
				if rt.Path[i] != wp[i] {
					walkErr = fmt.Errorf("live RIB %v session %d path %v, fold expects %v", e.Prefix, rt.Session, rt.Path, wp)
					return false
				}
			}
		}
		return true
	})
	return walkErr
}
