package attacks

import (
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
)

func genTopology(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 5, Tier2: 40, Tier3: 300,
		Tier2PeerProb: 0.08, MaxT2Providers: 3, MaxT3Providers: 3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHijackCapturesSubstantialFraction(t *testing.T) {
	g := genTopology(t)
	t3 := g.TierASNs(3)
	victim, attacker := t3[0], t3[len(t3)/2]
	res, err := Hijack(g, victim, attacker)
	if err != nil {
		t.Fatal(err)
	}
	if res.CaptureFraction <= 0.05 || res.CaptureFraction >= 1 {
		t.Fatalf("capture fraction = %v, want a substantial partial split", res.CaptureFraction)
	}
	// The victim always keeps its own route.
	if r, _ := res.Routes.Route(victim); r.Type != topology.RouteOrigin {
		t.Fatalf("victim route = %+v", r)
	}
	// Captured ASes actually route to the attacker.
	for _, a := range res.Captured {
		if r, _ := res.Routes.Route(a); r.Origin != attacker {
			t.Fatalf("captured AS %v routes to %v", a, r.Origin)
		}
	}
}

func TestHijackSameASRejected(t *testing.T) {
	g := genTopology(t)
	v := g.TierASNs(3)[0]
	if _, err := Hijack(g, v, v); err == nil {
		t.Fatal("self-hijack accepted")
	}
}

func TestAnonymitySet(t *testing.T) {
	g := genTopology(t)
	t3 := g.TierASNs(3)
	res, err := Hijack(g, t3[0], t3[7])
	if err != nil {
		t.Fatal(err)
	}
	clients := t3[10:60]
	anon := res.AnonymitySet(clients)
	if len(anon) == 0 || len(anon) >= len(clients) {
		t.Fatalf("anonymity set %d of %d clients; expected a strict subset", len(anon), len(clients))
	}
	cap := res.CapturedSet()
	for _, c := range anon {
		if !cap[c] && c != res.Attacker {
			t.Fatalf("client %v in anonymity set but not captured", c)
		}
	}
}

func TestMoreSpecificHijackCapturesAll(t *testing.T) {
	g := genTopology(t)
	t3 := g.TierASNs(3)
	victim, attacker := t3[0], t3[9]
	res, err := MoreSpecificHijack(g, victim, attacker)
	if err != nil {
		t.Fatal(err)
	}
	// LPM: everyone except the victim (and attacker) is captured.
	if res.CaptureFraction < 0.999 {
		t.Fatalf("more-specific capture fraction = %v, want ~1", res.CaptureFraction)
	}
	same, err := Hijack(g, victim, attacker)
	if err != nil {
		t.Fatal(err)
	}
	if res.CaptureFraction <= same.CaptureFraction {
		t.Fatal("more-specific hijack should capture more than same-prefix hijack")
	}
}

func TestInterceptKeepsReturnPath(t *testing.T) {
	g := genTopology(t)
	t3 := g.TierASNs(3)
	succ := 0
	trials := 0
	for i := 1; i <= 20; i++ {
		victim, attacker := t3[0], t3[i*7%len(t3)]
		if victim == attacker {
			continue
		}
		res, err := Intercept(g, victim, attacker)
		if err != nil {
			t.Fatal(err)
		}
		trials++
		if len(res.PathToVictim) < 2 || res.PathToVictim[0] != attacker {
			t.Fatalf("bad return path %v", res.PathToVictim)
		}
		if res.Success {
			// The return path must be clean: no hop captured.
			cap := res.CapturedSet()
			for _, hop := range res.PathToVictim[1:] {
				if cap[hop] {
					t.Fatalf("successful interception with polluted hop %v", hop)
				}
			}
			// A single-homed attacker that must withhold from its only
			// provider legitimately captures nobody; count effective
			// interceptions (clean path AND someone captured).
			if len(res.Captured) > 0 {
				succ++
			}
		}
	}
	if succ == 0 {
		t.Fatalf("no effective interceptions in %d trials", trials)
	}
}

func TestScopedHijackSmallerFootprint(t *testing.T) {
	g := genTopology(t)
	t3 := g.TierASNs(3)
	victim, attacker := t3[0], t3[11]
	// Announce to a single provider of the attacker.
	provs := g.AS(attacker).Providers()
	if len(provs) == 0 {
		t.Fatal("attacker has no providers")
	}
	scoped, err := ScopedHijack(g, victim, attacker, provs[:1])
	if err != nil {
		t.Fatal(err)
	}
	full, err := Hijack(g, victim, attacker)
	if err != nil {
		t.Fatal(err)
	}
	if len(scoped.Captured) == 0 {
		t.Fatal("scoped hijack captured nobody")
	}
	if len(scoped.Captured) > len(full.Captured) {
		t.Fatal("scoped hijack captured more than full hijack")
	}
	if scoped.Footprint >= g.Len()-1 {
		t.Fatalf("footprint %d is the whole Internet", scoped.Footprint)
	}
	// Footprint at least covers the captured ASes.
	if scoped.Footprint < len(scoped.Captured) {
		t.Fatalf("footprint %d < captured %d", scoped.Footprint, len(scoped.Captured))
	}
}

func TestScopedHijackValidation(t *testing.T) {
	g := genTopology(t)
	t3 := g.TierASNs(3)
	if _, err := ScopedHijack(g, t3[0], t3[1], nil); err == nil {
		t.Fatal("empty announce set accepted")
	}
	if _, err := ScopedHijack(g, t3[0], t3[1], []bgp.ASN{t3[2]}); err == nil {
		t.Fatal("non-neighbor announce target accepted")
	}
}

func TestSurveillance(t *testing.T) {
	va := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	cons := &torconsensus.Consensus{ValidAfter: va}
	add := func(id string, addr string, flags torconsensus.Flag, bw uint64) {
		cons.Relays = append(cons.Relays, torconsensus.Relay{
			Nickname: id, Identity: id, Published: va,
			Addr:      netip.MustParseAddr(addr),
			Flags:     flags | torconsensus.FlagRunning | torconsensus.FlagValid,
			Bandwidth: bw, ExitPolicy: "accept 1-65535",
		})
	}
	add("g1", "10.1.0.1", torconsensus.FlagGuard, 300)
	add("g2", "10.2.0.1", torconsensus.FlagGuard, 100)
	add("e1", "10.3.0.1", torconsensus.FlagExit, 500)
	add("e2", "10.4.0.1", torconsensus.FlagExit, 500)

	observedPrefix := netip.MustParsePrefix("10.1.0.0/16")
	s := Surveillance(cons, func(r *torconsensus.Relay) bool {
		return observedPrefix.Contains(r.Addr)
	})
	if s.GuardShare != 0.75 {
		t.Fatalf("GuardShare = %v, want 0.75", s.GuardShare)
	}
	if s.ExitShare != 0 {
		t.Fatalf("ExitShare = %v, want 0", s.ExitShare)
	}
	if s.CircuitShare != 0.75 {
		t.Fatalf("CircuitShare = %v", s.CircuitShare)
	}
	// Observing nothing gives zero shares.
	z := Surveillance(cons, func(*torconsensus.Relay) bool { return false })
	if z.GuardShare != 0 || z.ExitShare != 0 || z.CircuitShare != 0 {
		t.Fatalf("zero observation shares: %+v", z)
	}
}

func TestHijackWithROV(t *testing.T) {
	g := genTopology(t)
	t3 := g.TierASNs(3)
	victim, attacker := t3[0], t3[40]
	base, err := Hijack(g, victim, attacker)
	if err != nil {
		t.Fatal(err)
	}
	// No validators: identical outcome to a plain hijack.
	none, err := HijackWithROV(g, victim, attacker, nil)
	if err != nil {
		t.Fatal(err)
	}
	if none.CaptureFraction != base.CaptureFraction {
		t.Fatalf("no-validator ROV capture %.3f != plain %.3f",
			none.CaptureFraction, base.CaptureFraction)
	}
	// Universal deployment: nobody routes to the attacker.
	all := make(map[bgp.ASN]bool)
	for _, asn := range g.ASNs() {
		all[asn] = true
	}
	full, err := HijackWithROV(g, victim, attacker, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Captured) != 0 {
		t.Fatalf("full ROV still captured %d ASes", len(full.Captured))
	}
	// Everyone still reaches the victim.
	for _, asn := range g.ASNs() {
		if asn == attacker {
			continue
		}
		r, ok := full.Routes.Route(asn)
		if !ok || r.Origin != victim {
			t.Fatalf("%v lost its route to the victim under ROV", asn)
		}
	}
	// Partial deployment at the tier-1 clique shrinks capture.
	t1 := make(map[bgp.ASN]bool)
	for _, asn := range g.TierASNs(1) {
		t1[asn] = true
	}
	partial, err := HijackWithROV(g, victim, attacker, t1)
	if err != nil {
		t.Fatal(err)
	}
	if partial.CaptureFraction >= base.CaptureFraction {
		t.Fatalf("tier-1 ROV did not shrink capture: %.3f vs %.3f",
			partial.CaptureFraction, base.CaptureFraction)
	}
	if _, err := HijackWithROV(g, victim, victim, nil); err == nil {
		t.Fatal("self hijack accepted")
	}
}

// asymConfig is a 2 MB transfer against 5 decoys.
func asymConfig() AsymmetricConfig {
	return AsymmetricConfig{Seed: 1, Decoys: 5, FileSize: 2 << 20, Bin: 250 * time.Millisecond}
}

func TestAsymmetricDeanonymization(t *testing.T) {
	cfg := asymConfig()
	res, err := AsymmetricDeanonymization(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched {
		t.Fatalf("true client not identified: true=%.3f bestDecoy=%.3f",
			res.TrueScore, res.BestDecoyScore)
	}
	if res.TrueScore <= res.BestDecoyScore {
		t.Fatalf("no margin: true=%.3f decoy=%.3f", res.TrueScore, res.BestDecoyScore)
	}
}

func TestAsymmetricValidation(t *testing.T) {
	cfg := asymConfig()
	cfg.Decoys = 0
	if _, err := AsymmetricDeanonymization(cfg); err == nil {
		t.Fatal("zero decoys accepted")
	}
	cfg = asymConfig()
	cfg.Bin = 0
	if _, err := AsymmetricDeanonymization(cfg); err == nil {
		t.Fatal("zero bin accepted")
	}
}

func BenchmarkHijack(b *testing.B) {
	g := genTopology(b)
	t3 := g.TierASNs(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hijack(g, t3[0], t3[1+i%100]); err != nil {
			b.Fatal(err)
		}
	}
}
