package testkit

import (
	"bytes"
	"testing"

	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
)

func TestRandomTopologyDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, err := RandomTopology(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := RandomTopology(seed)
		if err != nil {
			t.Fatalf("seed %d again: %v", seed, err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("seed %d: %d vs %d ASes on re-generation", seed, a.Len(), b.Len())
		}
		for _, asn := range a.ASNs() {
			na, nb := a.AS(asn), b.AS(asn)
			if nb == nil || na.Degree() != nb.Degree() {
				t.Fatalf("seed %d: AS %v differs on re-generation", seed, asn)
			}
		}
	}
}

func TestRandomTopologyConnected(t *testing.T) {
	// Every AS must have a policy route to a tier-1 origin: the
	// generator promises transit connectivity.
	g, err := RandomTopology(7)
	if err != nil {
		t.Fatal(err)
	}
	origin := g.TierASNs(1)[0]
	rt, err := g.Routes(nil, topology.Origin{ASN: origin})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range g.ASNs() {
		if _, ok := rt.Route(asn); !ok {
			t.Errorf("AS %v has no route to tier-1 origin %v", asn, origin)
		}
	}
}

func TestRandomConsensusValid(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cons, host, err := RandomConsensus(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := RandomConsensusConfig(seed, nil)
		if len(cons.Relays) != cfg.Total {
			t.Errorf("seed %d: %d relays, want %d", seed, len(cons.Relays), cfg.Total)
		}
		if len(host.Prefixes) != cfg.GuardExitPrefixes+cfg.MiddleOnlyPrefixes {
			t.Errorf("seed %d: %d prefixes, want %d", seed,
				len(host.Prefixes), cfg.GuardExitPrefixes+cfg.MiddleOnlyPrefixes)
		}
		// Per-prefix relay cap holds for guard/exit relays.
		perPrefix := make(map[string]int)
		for i := range cons.Relays {
			r := &cons.Relays[i]
			if !r.IsGuard() && !r.IsExit() {
				continue
			}
			perPrefix[host.RelayPrefix[r.Addr].String()]++
		}
		for p, n := range perPrefix {
			if n > cfg.MaxRelaysPerPrefix {
				t.Errorf("seed %d: prefix %s hosts %d guard/exit relays, cap %d",
					seed, p, n, cfg.MaxRelaysPerPrefix)
			}
		}
	}
}

func TestRandomConsensusDeterministic(t *testing.T) {
	a, _, err := RandomConsensus(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RandomConsensus(3)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if _, err := a.WriteTo(&ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("same seed produced different consensus documents")
	}
}

func TestRandomWorldBuilds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w, err := RandomWorld(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(w.TorPrefixes) == 0 {
			t.Errorf("seed %d: world has no Tor prefixes", seed)
		}
		if len(w.Origins) <= len(w.Hosting.Prefixes) {
			t.Errorf("seed %d: no background prefixes landed (origins %d, hosting %d)",
				seed, len(w.Origins), len(w.Hosting.Prefixes))
		}
		// Every origin AS must exist in the topology.
		for p, asn := range w.Origins {
			if w.Topology.AS(asn) == nil {
				t.Fatalf("seed %d: prefix %v originated by unknown AS %v", seed, p, asn)
			}
		}
	}
}

func TestRandomUpdateMarshals(t *testing.T) {
	rng := Rand(11, 0)
	for i := 0; i < 200; i++ {
		as4 := i%2 == 0
		u := RandomUpdate(rng, as4)
		if !u.AnnouncesOrWithdraws() {
			t.Fatalf("update %d carries nothing", i)
		}
		if _, err := u.Marshal(as4); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
}

func TestRandomConsensusConfigHonorsPool(t *testing.T) {
	cfg := RandomConsensusConfig(5, nil)
	if cfg.NumHostASes > len(cfg.HostASes) {
		t.Fatalf("NumHostASes %d exceeds pool %d", cfg.NumHostASes, len(cfg.HostASes))
	}
	if err := torconsensusValidate(cfg); err != nil {
		t.Fatalf("generated config invalid: %v", err)
	}
}

// torconsensusValidate round-trips the config through the generator,
// whose first step is validation.
func torconsensusValidate(cfg torconsensus.GenConfig) error {
	_, _, err := torconsensus.GenerateConsensus(cfg)
	return err
}
