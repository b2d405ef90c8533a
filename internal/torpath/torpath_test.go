package torpath

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/torconsensus"
)

func genConsensus(t testing.TB) *torconsensus.Consensus {
	t.Helper()
	hosts := make([]bgp.ASN, 120)
	for i := range hosts {
		hosts[i] = bgp.ASN(20000 + i)
	}
	cfg := torconsensus.GenConfig{
		Total: 400, Guards: 150, Exits: 90, Both: 30,
		GuardExitPrefixes:  120,
		MaxRelaysPerPrefix: 15,
		MiddleOnlyPrefixes: 20,
		HostASes:           hosts,
		NumHostASes:        80,
		Seed:               9,
		ValidAfter:         time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC),
	}
	c, _, err := torconsensus.GenerateConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var testNow = time.Date(2014, 7, 2, 0, 0, 0, 0, time.UTC)

func TestPickGuards(t *testing.T) {
	s := NewSelector(genConsensus(t), 1)
	gs, err := s.PickGuards(3, testNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.Guards) != 3 {
		t.Fatalf("guards = %d", len(gs.Guards))
	}
	seen := make(map[string]bool)
	for _, g := range gs.Guards {
		if !g.IsGuard() {
			t.Fatalf("%s is not a guard", g.Nickname)
		}
		if seen[g.Identity] {
			t.Fatal("duplicate guard")
		}
		seen[g.Identity] = true
	}
	// /16 exclusion between guards.
	for i := 0; i < len(gs.Guards); i++ {
		for j := i + 1; j < len(gs.Guards); j++ {
			if sameSlash16(gs.Guards[i].Addr, gs.Guards[j].Addr) {
				t.Fatalf("guards %v and %v share a /16", gs.Guards[i].Addr, gs.Guards[j].Addr)
			}
		}
	}
}

func TestPickGuardsErrors(t *testing.T) {
	s := NewSelector(genConsensus(t), 1)
	if _, err := s.PickGuards(0, testNow); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := s.PickGuards(100000, testNow); err == nil {
		t.Fatal("impossible guard count accepted")
	}
}

func TestBuildCircuitConstraints(t *testing.T) {
	s := NewSelector(genConsensus(t), 2)
	gs, err := s.PickGuards(3, testNow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c, err := s.BuildCircuit(gs, 443)
		if err != nil {
			t.Fatal(err)
		}
		if c.Guard == nil || c.Middle == nil || c.Exit == nil {
			t.Fatal("incomplete circuit")
		}
		inSet := false
		for _, g := range gs.Guards {
			if g.Identity == c.Guard.Identity {
				inSet = true
			}
		}
		if !inSet {
			t.Fatal("circuit guard not from guard set")
		}
		if !c.Exit.IsExit() || !c.Exit.AllowsPort(443) {
			t.Fatalf("bad exit %+v", c.Exit)
		}
		rs := []*torconsensus.Relay{c.Guard, c.Middle, c.Exit}
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				if rs[i].Identity == rs[j].Identity {
					t.Fatal("duplicate relay in circuit")
				}
				if sameSlash16(rs[i].Addr, rs[j].Addr) {
					t.Fatalf("circuit relays share /16: %v %v", rs[i].Addr, rs[j].Addr)
				}
			}
		}
	}
}

func TestBuildCircuitEmptyGuardSet(t *testing.T) {
	s := NewSelector(genConsensus(t), 2)
	if _, err := s.BuildCircuit(nil, 443); err == nil {
		t.Fatal("nil guard set accepted")
	}
	if _, err := s.BuildCircuit(&GuardSet{}, 443); err == nil {
		t.Fatal("empty guard set accepted")
	}
}

func TestBuildCircuitNoExitForPort(t *testing.T) {
	// Build a tiny consensus with exits that only accept 80.
	va := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	cons := &torconsensus.Consensus{ValidAfter: va}
	add := func(nick string, addr string, flags torconsensus.Flag, bw uint64, policy string) {
		cons.Relays = append(cons.Relays, torconsensus.Relay{
			Nickname: nick, Identity: nick, Digest: nick, Published: va,
			Addr: netip.MustParseAddr(addr), ORPort: 9001,
			Flags:     flags | torconsensus.FlagRunning | torconsensus.FlagValid,
			Bandwidth: bw, ExitPolicy: policy,
		})
	}
	add("g1", "10.1.0.1", torconsensus.FlagGuard, 100, "reject 1-65535")
	add("m1", "10.2.0.1", 0, 100, "reject 1-65535")
	add("e1", "10.3.0.1", torconsensus.FlagExit, 100, "accept 80")
	s := NewSelector(cons, 3)
	gs, err := s.PickGuards(1, testNow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildCircuit(gs, 443); err == nil {
		t.Fatal("circuit built with no exit for port 443")
	}
	if _, err := s.BuildCircuit(gs, 80); err != nil {
		t.Fatalf("port 80 circuit failed: %v", err)
	}
}

func TestWeightedPickRespectsWeights(t *testing.T) {
	va := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	big := &torconsensus.Relay{Nickname: "big", Identity: "big", Published: va,
		Addr: netip.MustParseAddr("10.0.0.1"), Bandwidth: 9000}
	small := &torconsensus.Relay{Nickname: "small", Identity: "small", Published: va,
		Addr: netip.MustParseAddr("10.1.0.1"), Bandwidth: 1000}
	s := NewSelector(&torconsensus.Consensus{}, 4)
	cands := []*torconsensus.Relay{big, small}
	bigCount := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		if s.WeightedPick(cands, nil) == big {
			bigCount++
		}
	}
	frac := float64(bigCount) / trials
	if math.Abs(frac-0.9) > 0.03 {
		t.Fatalf("big picked %.3f of the time, want ~0.9", frac)
	}
}

func TestWeightedPickExclusion(t *testing.T) {
	va := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	a := &torconsensus.Relay{Identity: "a", Published: va, Addr: netip.MustParseAddr("10.0.0.1"), Bandwidth: 10}
	b := &torconsensus.Relay{Identity: "b", Published: va, Addr: netip.MustParseAddr("10.0.5.1"), Bandwidth: 10}
	s := NewSelector(&torconsensus.Consensus{}, 5)
	// b shares a /16 with a: excluding a must leave nothing.
	if got := s.WeightedPick([]*torconsensus.Relay{b}, []*torconsensus.Relay{a}); got != nil {
		t.Fatalf("picked %v despite /16 conflict", got.Identity)
	}
	if got := s.WeightedPick(nil, nil); got != nil {
		t.Fatal("picked from empty candidates")
	}
}

func TestSelectionProb(t *testing.T) {
	va := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	a := &torconsensus.Relay{Identity: "a", Published: va, Bandwidth: 300}
	b := &torconsensus.Relay{Identity: "b", Published: va, Bandwidth: 100}
	probs := SelectionProb([]*torconsensus.Relay{a, b})
	if math.Abs(probs["a"]-0.75) > 1e-12 || math.Abs(probs["b"]-0.25) > 1e-12 {
		t.Fatalf("probs = %v", probs)
	}
	if len(SelectionProb(nil)) != 0 {
		t.Fatal("empty candidates should give empty probs")
	}
}

// TestGuardRotation checks that a picked guard set is stamped with its
// pick time and the default lifetime, so it expires a month later.
func TestGuardRotation(t *testing.T) {
	s := NewSelector(genConsensus(t), 6)
	gs, err := s.PickGuards(3, testNow)
	if err != nil {
		t.Fatal(err)
	}
	if !gs.Chosen.Equal(testNow) || gs.Lifetime != DefaultGuardLifetime {
		t.Fatalf("picked set Chosen = %v, Lifetime = %v", gs.Chosen, gs.Lifetime)
	}
	if gs.Expired(testNow.Add(24 * time.Hour)) {
		t.Fatal("guard set expired after one day")
	}
	if !gs.Expired(testNow.Add(31 * 24 * time.Hour)) {
		t.Fatal("guard set should be expired after 31 days")
	}
}

// Guard selection frequency approaches bandwidth share over many clients:
// the core premise of "high-bandwidth relays observe a significant
// fraction of Tor traffic" (§3.2).
func TestGuardSelectionMatchesBandwidthShare(t *testing.T) {
	cons := genConsensus(t)
	s := NewSelector(cons, 7)
	guards := cons.Guards()
	probs := SelectionProb(guards)
	// Find the heaviest guard.
	var top *torconsensus.Relay
	for _, g := range guards {
		if top == nil || g.Bandwidth > top.Bandwidth {
			top = g
		}
	}
	count := 0
	const clients = 3000
	for i := 0; i < clients; i++ {
		gs, err := s.PickGuards(1, testNow)
		if err != nil {
			t.Fatal(err)
		}
		if gs.Guards[0].Identity == top.Identity {
			count++
		}
	}
	got := float64(count) / clients
	want := probs[top.Identity]
	if math.Abs(got-want) > 0.05+want/2 {
		t.Fatalf("top guard frequency %.4f, bandwidth share %.4f", got, want)
	}
}

func BenchmarkBuildCircuit(b *testing.B) {
	s := NewSelector(genConsensus(b), 8)
	gs, err := s.PickGuards(3, testNow)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.BuildCircuit(gs, 443); err != nil {
			b.Fatal(err)
		}
	}
}
