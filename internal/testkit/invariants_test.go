package testkit

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"quicksand/internal/analysis"
	"quicksand/internal/bgp"
	"quicksand/internal/stats"
	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
	"quicksand/internal/torpath"
)

func TestStreamPolicyInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("stream simulation is seconds-scale")
	}
	for seed := int64(1); seed <= 3; seed++ {
		w, st, err := RandomStream(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(st.Updates) == 0 {
			t.Fatalf("seed %d: churn produced no updates", seed)
		}
		if err := CheckStreamPolicy(w.Topology, st, w.Origins); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestStreamPolicyWithHijacks(t *testing.T) {
	if testing.Short() {
		t.Skip("stream simulation is seconds-scale")
	}
	w, err := RandomWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RandomChurnConfig(4)
	cfg.InjectHijacks = 3
	st, err := w.SimulateMonth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Attacks) == 0 {
		t.Skip("no hijack landed inside the run window for this seed")
	}
	if err := CheckStreamPolicy(w.Topology, st, w.Origins); err != nil {
		t.Errorf("hijacked stream violates policy invariants: %v", err)
	}
}

func TestCheckPathRejectsBadPaths(t *testing.T) {
	// 1 ── 2 (1 provider of 2), 2 ── 3 (2 provider of 3), 1 ── 4 peers.
	g := topology.NewGraph()
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeering(1, 4); err != nil {
		t.Fatal(err)
	}
	origins := map[bgp.ASN]bool{3: true}
	if err := CheckPath(g, 1, []bgp.ASN{1, 2, 3}, origins); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	cases := []struct {
		name string
		path []bgp.ASN
		want string
	}{
		{"empty", nil, "empty"},
		{"wrong vantage", []bgp.ASN{2, 3}, "vantage"},
		{"loop", []bgp.ASN{1, 2, 1}, "loop"},
		{"non-adjacent", []bgp.ASN{1, 3}, "valley-free"},
		{"valley", []bgp.ASN{4, 1, 2, 3}, ""}, // peer then down is fine; see below
		{"wrong origin", []bgp.ASN{1, 2}, "origin"},
	}
	for _, tc := range cases {
		var vantage bgp.ASN = 1
		if len(tc.path) > 0 {
			vantage = tc.path[0]
		}
		if tc.name == "wrong vantage" {
			vantage = 1
		}
		err := CheckPath(g, vantage, tc.path, origins)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// A real valley: down from 1 to 2, then back up 2→1 is a loop; use
	// peer-after-down instead: 2 → 1 (up) is fine, but 1 → 4 (across)
	// after a down hop at 2 → ... construct 3 up to 2 up to 1 across to
	// 4 is valley-free (ups then across); the true valley is across
	// then up: 4 → 1 is across, then 1 has no provider. Down-then-up:
	// 1 → 2 (down) → 3? That reaches origin 3 going down-down: legal.
	// So exercise the valley via peer → peer: 4 ─ 1 across, and a
	// second peering 4 ─ 2 would allow 2 → 4 → 1: across twice.
	if err := g.AddPeering(4, 2); err != nil {
		t.Fatal(err)
	}
	if err := CheckPath(g, 2, []bgp.ASN{2, 4, 1}, map[bgp.ASN]bool{1: true}); err == nil {
		t.Error("double-peering path accepted; want valley-free rejection")
	}
}

// TestLPMAgainstLinearOracle checks §4's relay → Tor-prefix mapping
// (analysis.MapTorPrefixes over a BuildRIB index) against a linear scan:
// each relay must land in the most specific announced prefix containing
// it, with that prefix's origin and role counts, and relays no prefix
// covers must be reported unmapped, in consensus order.
func TestLPMAgainstLinearOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cons, _, err := RandomConsensus(seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := Rand(seed, 10)
		origins := make(map[netip.Prefix]bgp.ASN)
		// Nested prefixes over every relay, so the most specific one has
		// to be found, and noise elsewhere; then every fifth relay loses
		// all its covering prefixes, so some relays are unrouted.
		for _, r := range cons.Relays {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				p, _ := r.Addr.Prefix(8 + rng.Intn(25))
				origins[p] = RandomASN(rng, true)
			}
		}
		for i := 0; i < 200; i++ {
			origins[RandomPrefix(rng)] = RandomASN(rng, true)
		}
		for i := 0; i < len(cons.Relays); i += 5 {
			for p := range origins {
				if p.Contains(cons.Relays[i].Addr) {
					delete(origins, p)
				}
			}
		}
		rib, err := analysis.BuildRIB(origins)
		if err != nil {
			t.Fatal(err)
		}
		tor, unmapped, err := analysis.MapTorPrefixes(cons, rib)
		if err != nil {
			t.Fatal(err)
		}
		if len(tor) == 0 || len(unmapped) == 0 {
			t.Fatalf("seed %d: %d Tor prefixes, %d unmapped relays; want both", seed, len(tor), len(unmapped))
		}

		type counts struct{ guards, exits, middles, guardExit int }
		want := make(map[netip.Prefix]*counts)
		var wantUnmapped []netip.Addr
		for i := range cons.Relays {
			r := &cons.Relays[i]
			best, found := netip.Prefix{}, false
			for p := range origins {
				if p.Contains(r.Addr) && (!found || p.Bits() > best.Bits()) {
					best, found = p, true
				}
			}
			if !found {
				wantUnmapped = append(wantUnmapped, r.Addr)
				continue
			}
			c := want[best]
			if c == nil {
				c = &counts{}
				want[best] = c
			}
			g, e := r.HasFlag(torconsensus.FlagGuard), r.HasFlag(torconsensus.FlagExit)
			if g {
				c.guards++
			}
			if e {
				c.exits++
			}
			if g || e {
				c.guardExit++
			} else {
				c.middles++
			}
		}
		if !slices.Equal(unmapped, wantUnmapped) {
			t.Errorf("seed %d: unmapped %v, oracle %v", seed, unmapped, wantUnmapped)
		}
		for p, c := range want {
			tp := tor[p]
			if c.guardExit == 0 {
				if tp != nil {
					t.Errorf("seed %d: middle-only %v kept as a Tor prefix", seed, p)
				}
				continue
			}
			if tp == nil {
				t.Errorf("seed %d: Tor prefix %v missing", seed, p)
				continue
			}
			got := counts{tp.Guards, tp.Exits, tp.Middles, tp.GuardExitRelays()}
			if tp.Prefix != p || tp.Origin != origins[p] || got != *c {
				t.Errorf("seed %d: %v = %v/%v %+v, oracle %v %+v", seed, p, tp.Prefix, tp.Origin, got, origins[p], *c)
			}
		}
		for p := range tor {
			if c := want[p]; c == nil || c.guardExit == 0 {
				t.Errorf("seed %d: %v is no relay's most specific guard/exit prefix", seed, p)
			}
		}
	}
}

func TestCodecRoundTrips(t *testing.T) {
	if err := CheckBGPRoundTrip(Rand(21, 0), 300); err != nil {
		t.Errorf("bgp: %v", err)
	}
	if err := CheckMRTRoundTrip(Rand(21, 1), 200); err != nil {
		t.Errorf("mrt: %v", err)
	}
	if err := CheckPcapRoundTrip(Rand(21, 2), 200); err != nil {
		t.Errorf("pcap: %v", err)
	}
	cons, _, err := RandomConsensus(21)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConsensusRoundTrip(cons); err != nil {
		t.Errorf("torconsensus: %v", err)
	}
}

func TestSelectionMatchesBandwidthWeights(t *testing.T) {
	cons, _, err := RandomConsensus(31)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic seed: a fixed draw sequence either passes or it
	// does not; 1e-4 leaves room for an unlucky but fair sequence.
	if err := CheckSelectionWeights(cons, 97, 20000, 1e-4); err != nil {
		t.Error(err)
	}
}

func TestSelectionCheckerSelfConsistentAfterReweighting(t *testing.T) {
	// Doctoring a guard's bandwidth moves both the sampler and the
	// analytic expectations, so the checker must still pass — it tests
	// agreement, not any particular weight vector.
	cons, _, err := RandomConsensus(32)
	if err != nil {
		t.Fatal(err)
	}
	guards := cons.Guards()
	if len(guards) < 3 {
		t.Skip("not enough guards")
	}
	g0 := guards[0]
	orig := g0.Bandwidth
	g0.Bandwidth = orig*50 + 100000
	err = CheckSelectionWeights(cons, 98, 20000, 1e-4)
	g0.Bandwidth = orig
	if err != nil {
		t.Fatalf("self-consistent doctored consensus failed: %v", err)
	}
}

func TestSelectionCheckerCatchesBias(t *testing.T) {
	// A uniform sampler over bandwidth-skewed guards must be rejected:
	// emulate a broken WeightedPick by drawing guards uniformly and
	// feeding the counts through the same chi-square machinery.
	cons, _, err := RandomConsensus(33)
	if err != nil {
		t.Fatal(err)
	}
	cands := cons.Guards()
	rng := Rand(33, 5)
	const draws = 20000
	counts := make(map[string]int, len(cands))
	for i := 0; i < draws; i++ {
		counts[cands[rng.Intn(len(cands))].Identity]++
	}
	probs := torpath.SelectionProb(cands)
	observed := make([]float64, len(cands))
	expected := make([]float64, len(cands))
	for i, r := range cands {
		observed[i] = float64(counts[r.Identity])
		expected[i] = probs[r.Identity] * draws
	}
	obs, exp, err := stats.MergeSmallBins(observed, expected, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, _, p, err := stats.ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("uniform sampler over skewed weights got p=%.3g; want decisive rejection", p)
	}
}
