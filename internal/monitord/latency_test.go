package monitord_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/monitord"
	"quicksand/internal/obs"
	"quicksand/internal/testkit"
)

// latencyDaemon starts a daemon with BGP+HTTP listeners and the given
// latency/batch knobs, plus an established client session dialed into
// it.
func latencyDaemon(t *testing.T, readBatch, alertBuffer int) (*monitord.Daemon, *bgpd.Session) {
	t.Helper()
	d, err := monitord.New(monitord.Config{
		Watched: map[netip.Prefix]bgp.ASN{
			netip.MustParsePrefix("10.0.0.0/16"): 64496,
		},
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
		},
		ListenBGP:   "127.0.0.1:0",
		ListenHTTP:  "127.0.0.1:0",
		Shards:      4,
		ReadBatch:   readBatch,
		AlertBuffer: alertBuffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	conn, err := net.Dial("tcp", d.BGPAddr())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN: 64501, BGPID: netip.MustParseAddr("203.0.113.1"),
	})
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return d, sess
}

// announce builds one announcement update for prefix via the given path.
func announce(pfx string, path ...bgp.ASN) *bgp.Update {
	return &bgp.Update{
		NLRI: []netip.Prefix{netip.MustParsePrefix(pfx)},
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(path...),
			NextHop: netip.MustParseAddr("203.0.113.1"),
		},
	}
}

// scrapeFams fetches, lints, and parses the daemon's /metrics.
func scrapeFams(t *testing.T, d *monitord.Daemon) *obs.Snapshot {
	t.Helper()
	resp, err := http.Get("http://" + d.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if errs := testkit.LintProm(string(body)); errs != nil {
		t.Fatalf("/metrics fails lint: %v", errs)
	}
	snap, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// sampleValue returns the value of the named sample whose labels include
// match, or -1 when absent.
func sampleValue(snap *obs.Snapshot, sample string, match map[string]string) float64 {
	v, n := snap.Sum(sample, match)
	if n == 0 {
		return -1
	}
	return v
}

// waitAlerts polls until the daemon has raised at least n alerts
// (counting evicted ones).
func waitAlerts(t *testing.T, d *monitord.Daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		alerts, _, dropped := d.Alerts(0, 0)
		if len(alerts)+int(dropped) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d alerts (+%d dropped) after 5s, want %d", len(alerts), dropped, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitProcessed polls /metrics until the daemon has ingested n updates,
// then waits for the pipeline to quiesce.
func waitProcessed(t *testing.T, d *monitord.Daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fams := scrapeFams(t, d)
		if sampleValue(fams, "monitord_updates_ingested_total", nil) >= float64(n) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d updates ingested after 5s", n)
		}
		time.Sleep(time.Millisecond)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
}

// TestStageLatencyMetricsOverTCP drives a hijack through a real TCP
// session and asserts every pipeline stage histogram populates, the
// end-to-end detection histogram records the alert, and the whole
// exposition stays lint-clean.
func TestStageLatencyMetricsOverTCP(t *testing.T) {
	d, sess := latencyDaemon(t, 64, 0)
	updates := []*bgp.Update{
		announce("10.0.0.0/16", 64501, 64500, 64496), // benign watched route
		announce("192.0.2.0/24", 64501, 64510),       // background
		announce("10.0.0.0/16", 64501, 666),          // origin hijack -> alert
	}
	if err := sess.SendUpdates(updates); err != nil {
		t.Fatal(err)
	}
	waitAlerts(t, d, 1)
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	fams := scrapeFams(t, d)
	for _, stage := range []string{"read", "dispatch", "apply", "monitor"} {
		if got := sampleValue(fams, "monitord_stage_seconds_count", map[string]string{"stage": stage}); got < 1 {
			t.Errorf("stage %q count = %v, want >= 1", stage, got)
		}
	}
	if got := sampleValue(fams, "monitord_detection_seconds_count", nil); got < 1 {
		t.Errorf("detection count = %v, want >= 1", got)
	}
	if got := sampleValue(fams, "monitord_detection_seconds_sum", nil); got <= 0 {
		t.Errorf("detection sum = %v, want > 0 (monotonic time.Since)", got)
	}
	if got := sampleValue(fams, "monitord_read_batch_size_count", nil); got < 1 {
		t.Errorf("read batch size count = %v, want >= 1", got)
	}
}

// TestReadBatchSizeSkewBound is the ReadBatch 1 vs 256 regression: with
// ReadBatch 1 every batch must be exactly one update (the batch-size
// histogram's le="1" bucket equals its count, so stage stamps are exact
// per update), while with ReadBatch 256 the same burst coalesces into
// multi-update batches (batch count strictly below total updates), which
// is precisely the skew the histogram exists to bound.
func TestReadBatchSizeSkewBound(t *testing.T) {
	const burst = 256
	updates := make([]*bgp.Update, burst)
	for i := range updates {
		updates[i] = announce(fmt.Sprintf("192.0.%d.0/24", i%250), 64501, 64510)
	}

	t.Run("batch1", func(t *testing.T) {
		d, sess := latencyDaemon(t, 1, 0)
		if err := sess.SendUpdates(updates); err != nil {
			t.Fatal(err)
		}
		waitProcessed(t, d, burst)
		fams := scrapeFams(t, d)
		count := sampleValue(fams, "monitord_read_batch_size_count", nil)
		le1 := sampleValue(fams, "monitord_read_batch_size_bucket", map[string]string{"le": "1"})
		if count != burst {
			t.Fatalf("batch count = %v, want %d (one batch per update)", count, burst)
		}
		if le1 != count {
			t.Errorf("le=1 bucket %v != count %v: ReadBatch=1 produced a multi-update batch", le1, count)
		}
		if sum := sampleValue(fams, "monitord_read_batch_size_sum", nil); sum != count {
			t.Errorf("sum %v != count %v at ReadBatch=1", sum, count)
		}
	})

	t.Run("batch256", func(t *testing.T) {
		d, sess := latencyDaemon(t, 256, 0)
		// One burst per iteration until the receiver demonstrably
		// coalesced: a single 256-update burst lands in the socket buffer
		// faster than 256 wakeups can drain it, so this converges on the
		// first send in practice; the loop only absorbs scheduler noise.
		total := 0
		for i := 0; i < 50; i++ {
			if err := sess.SendUpdates(updates); err != nil {
				t.Fatal(err)
			}
			total += burst
			waitProcessed(t, d, total)
			fams := scrapeFams(t, d)
			count := sampleValue(fams, "monitord_read_batch_size_count", nil)
			sum := sampleValue(fams, "monitord_read_batch_size_sum", nil)
			if sum != float64(total) {
				t.Fatalf("batch size sum = %v, want %d (every update in exactly one batch)", sum, total)
			}
			if count < sum {
				return // some batch held >1 update: coalescing observed
			}
		}
		t.Fatal("no multi-update batch observed in 50 bursts at ReadBatch=256")
	})
}

// TestAlertRingOverflowCounter overflows a tiny alert ring and checks
// the real eviction counter: the exposition must report exactly
// total-capacity drops, matching what ring.since reports to a client
// reading from the beginning.
func TestAlertRingOverflowCounter(t *testing.T) {
	const capacity, hijacks = 8, 20
	d, sess := latencyDaemon(t, 64, capacity)
	us := make([]*bgp.Update, hijacks)
	for i := range us {
		// Alternate bogus origins; every wrong-origin announcement of the
		// watched prefix raises its own origin-change alert.
		us[i] = announce("10.0.0.0/16", 64501, bgp.ASN(666+i%2))
	}
	if err := sess.SendUpdates(us); err != nil {
		t.Fatal(err)
	}
	waitAlerts(t, d, hijacks)
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}

	const wantDropped = hijacks - capacity
	alerts, _, dropped := d.Alerts(0, 0)
	if dropped != wantDropped {
		t.Errorf("since(0) dropped = %d, want %d", dropped, wantDropped)
	}
	if len(alerts) != capacity {
		t.Errorf("live alerts = %d, want %d", len(alerts), capacity)
	}
	fams := scrapeFams(t, d)
	if got := sampleValue(fams, "monitord_alerts_dropped_total", nil); got != wantDropped {
		t.Errorf("exposition monitord_alerts_dropped_total = %v, want %d", got, wantDropped)
	}
}
