package defense

import (
	"testing"
	"time"

	"quicksand/internal/attacks"
	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

func TestPathProberBaselineAndCheck(t *testing.T) {
	p := NewPathProber()
	dst := bgp.ASN(24940)
	p.Baseline(dst, []bgp.ASN{100, 3320, 24940})
	p.Baseline(dst, []bgp.ASN{100, 1299, 24940}) // churn folds into baseline

	// A known path raises nothing.
	if alerts := p.Check(mt0, dst, []bgp.ASN{100, 3320, 24940}); len(alerts) != 0 {
		t.Fatalf("known path alerted: %v", alerts)
	}
	// A new AS on the path raises PathAlertNewAS.
	alerts := p.Check(mt0, dst, []bgp.ASN{100, 666, 24940})
	if len(alerts) != 1 || alerts[0].Kind != PathAlertNewAS || alerts[0].Observed != 666 {
		t.Fatalf("alerts = %v", alerts)
	}
	// A detour two hops longer also raises the length alarm.
	alerts = p.Check(mt0, dst, []bgp.ASN{100, 3320, 1299, 666, 24940})
	kinds := map[PathAlertKind]bool{}
	for _, a := range alerts {
		kinds[a.Kind] = true
	}
	if !kinds[PathAlertNewAS] || !kinds[PathAlertLengthJump] {
		t.Fatalf("alerts = %v", alerts)
	}
	// No answer at all: blackhole.
	alerts = p.Check(mt0, dst, nil)
	if len(alerts) != 1 || alerts[0].Kind != PathAlertUnreachable {
		t.Fatalf("alerts = %v", alerts)
	}
	// Baseline publication.
	known := p.KnownASes(dst)
	if len(known) != 4 { // 100, 1299, 3320, 24940
		t.Fatalf("known = %v", known)
	}
	for i := 1; i < len(known); i++ {
		if known[i] < known[i-1] {
			t.Fatal("KnownASes not sorted")
		}
	}
}

// End-to-end: an interception detour is caught by the data-plane prober
// even though the client never sees the bogus BGP announcement itself.
func TestProberDetectsInterception(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 4, Tier2: 30, Tier3: 200,
		Tier2PeerProb: 0.08, MaxT2Providers: 2, MaxT3Providers: 3, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	t3 := g.TierASNs(3)
	victim := t3[0] // guard's AS

	pre, err := g.Routes(nil, topology.Origin{ASN: victim})
	if err != nil {
		t.Fatal(err)
	}

	// Find an attacker whose interception succeeds and captures at
	// least one stub client; then verify that client's prober alarms.
	for i := 1; i < len(t3); i++ {
		attacker := t3[i]
		ir, err := attacks.Intercept(g, victim, attacker)
		if err != nil {
			t.Fatal(err)
		}
		if !ir.Success || len(ir.Captured) == 0 {
			continue
		}
		var client bgp.ASN
		capSet := ir.CapturedSet()
		for _, c := range t3 {
			if capSet[c] && c != attacker {
				client = c
				break
			}
		}
		if client == 0 {
			continue
		}
		prober := NewPathProber()
		base, ok := ProbePath(pre, client)
		if !ok {
			t.Fatal("no baseline path")
		}
		prober.Baseline(victim, base)

		// Post-attack data-plane path: the client's traffic reaches the
		// attacker, then follows the attacker's clean path onward.
		hijacked, ok := ir.Routes.PathFrom(client)
		if !ok {
			t.Fatal("captured client has no route")
		}
		measured := append(hijacked[:len(hijacked)-1:len(hijacked)-1], ir.PathToVictim...)
		alerts := prober.Check(time.Now(), victim, measured)
		if len(alerts) == 0 {
			t.Fatalf("interception detour not detected: base %v measured %v", base, measured)
		}
		found := false
		for _, a := range alerts {
			if a.Kind == PathAlertNewAS && a.Observed == attacker {
				found = true
			}
		}
		if !found {
			t.Fatalf("attacker %v not flagged: %v", attacker, alerts)
		}
		return
	}
	t.Skip("no effective interception with a captured stub for this seed")
}

// Regression: a probe against a destination with no recorded baseline
// must report the missing baseline once — not flag every hop as a new
// AS. Before the fix, a cold-start prober turned a single clean
// measurement into len(path) false PathAlertNewAS alarms.
func TestPathProberNoBaseline(t *testing.T) {
	p := NewPathProber()
	dst := bgp.ASN(24940)
	path := []bgp.ASN{100, 3320, 1299, 24940}
	alerts := p.Check(mt0, dst, path)
	if len(alerts) != 1 {
		t.Fatalf("cold prober raised %d alerts, want exactly 1: %v", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Kind != PathAlertNoBaseline || a.Dst != dst || !a.Time.Equal(mt0) {
		t.Fatalf("alert = %+v, want no-baseline for %v", a, dst)
	}
	if got := a.Kind.String(); got != "no-baseline" {
		t.Fatalf("Kind.String() = %q", got)
	}
	// The check must not have polluted the baseline: after a real
	// Baseline call the same path is clean and a detour still alarms.
	p.Baseline(dst, path)
	if alerts := p.Check(mt0, dst, path); len(alerts) != 0 {
		t.Fatalf("baselined path alerted: %v", alerts)
	}
	if alerts := p.Check(mt0, dst, []bgp.ASN{100, 666, 24940}); len(alerts) != 1 {
		t.Fatalf("detour after baseline: %v", alerts)
	}
	// A blackhole still wins over the no-baseline report.
	fresh := NewPathProber()
	if alerts := fresh.Check(mt0, dst, nil); len(alerts) != 1 || alerts[0].Kind != PathAlertUnreachable {
		t.Fatalf("blackhole on cold prober: %v", alerts)
	}
}
