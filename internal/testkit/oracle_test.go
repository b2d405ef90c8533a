package testkit

import (
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

func TestDiffRoutesReportsDisagreements(t *testing.T) {
	g, err := RandomTopology(2)
	if err != nil {
		t.Fatal(err)
	}
	origin := g.ASNs()[0]
	cr, err := g.Routes(nil, topology.Origin{ASN: origin})
	if err != nil {
		t.Fatal(err)
	}
	rt := cr.Table()
	if diffs := DiffRoutes(rt, rt); len(diffs) != 0 {
		t.Fatalf("identical tables diff: %v", diffs)
	}
	// Perturb one entry and one absence; both must be reported.
	mutated := make(topology.RouteTable, len(rt))
	for a, r := range rt {
		mutated[a] = r
	}
	var victim bgp.ASN
	for a, r := range rt {
		if r.Type == topology.RouteProvider {
			victim = a
			break
		}
	}
	r := mutated[victim]
	r.PathLen++
	mutated[victim] = r
	var dropped bgp.ASN
	for a := range rt {
		if a != victim {
			dropped = a
			break
		}
	}
	delete(mutated, dropped)
	diffs := DiffRoutes(mutated, rt)
	if len(diffs) != 2 {
		t.Fatalf("got %d diffs, want 2: %v", len(diffs), diffs)
	}
	seen := map[bgp.ASN]bool{diffs[0].ASN: true, diffs[1].ASN: true}
	if !seen[victim] || !seen[dropped] {
		t.Errorf("diffs %v do not cover perturbed ASes %v and %v", diffs, victim, dropped)
	}
}

func TestNaiveRoutesValidation(t *testing.T) {
	g := topology.NewGraph()
	g.AddAS(1)
	if _, err := NaiveRoutes(g, nil); err == nil {
		t.Error("no origins accepted")
	}
	if _, err := NaiveRoutes(g, nil, topology.Origin{ASN: 99}); err == nil {
		t.Error("unknown origin accepted")
	}
	if _, err := NaiveRoutes(g, nil, topology.Origin{ASN: 1}, topology.Origin{ASN: 1}); err == nil {
		t.Error("duplicate origin accepted")
	}
}

// FuzzComputeRoutes builds a small graph from the input and checks the
// compiled engine against the naive oracle, route for route, under 1-3
// origins, announcement scoping and an import filter. It is the proof
// the compiled engine's order-free frontiers lean on: the engine walks
// its queues in fill order, the oracle has no queues at all, and every
// table must still agree.
//
// The first six bytes choose the origins, the scoping and the filter;
// each following 3-byte chunk adds one link (kind, endpoint, endpoint).
func FuzzComputeRoutes(f *testing.F) {
	const n = 32
	// Seeds: a chain, a diamond under two peered cores with a hijacker,
	// a scoped origin, and a filtered three-origin split.
	f.Add([]byte{0, 5, 0, 0, 0, 0, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5})
	f.Add([]byte{1, 9, 10, 0, 0, 0, 1, 1, 2, 0, 1, 5, 0, 2, 6, 0, 5, 9, 0, 6, 9, 0, 6, 10, 0, 5, 11})
	f.Add([]byte{0, 3, 0, 0, 1, 0, 0, 1, 3, 0, 2, 3, 1, 1, 2, 0, 3, 7, 0, 3, 8, 1, 7, 8})
	f.Add([]byte{2, 4, 8, 12, 6, 3, 0, 1, 2, 0, 1, 3, 0, 2, 4, 0, 3, 8, 0, 2, 12, 1, 4, 8, 0, 4, 20, 0, 8, 21, 0, 12, 22})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		head, links := data[:6], data[6:]
		g := topology.NewGraph()
		for a := 1; a <= n; a++ {
			g.AddAS(bgp.ASN(a))
		}
		asn := func(b byte) bgp.ASN { return bgp.ASN(1 + int(b)%n) }
		for ; len(links) >= 3; links = links[3:] {
			a, b := asn(links[1]), asn(links[2])
			if links[0]%2 == 1 {
				_ = g.AddPeering(a, b) // self or already linked: skipped
				continue
			}
			// Lower ASN provides, keeping the customer DAG acyclic.
			if a > b {
				a, b = b, a
			}
			_ = g.AddLink(a, b)
		}

		var origins []topology.Origin
		seen := make(map[bgp.ASN]bool)
		for _, b := range head[1 : 2+int(head[0])%3] {
			if o := asn(b); !seen[o] {
				seen[o] = true
				origins = append(origins, topology.Origin{ASN: o})
			}
		}
		// Scope the first origin's announcement by one of its neighbors.
		if neigh := g.Neighbors(origins[0].ASN); len(neigh) > 0 {
			scope := map[bgp.ASN]bool{neigh[int(head[4]/3)%len(neigh)]: true}
			switch head[4] % 3 {
			case 1:
				origins[0].WithholdFrom = scope
			case 2:
				origins[0].AnnounceOnly = scope
			}
		}
		// Every k-th AS drops routes toward the last origin (ROV).
		var filter topology.ImportFilter
		if k := bgp.ASN(head[5] % 5); k > 1 {
			reject := origins[len(origins)-1].ASN
			filter = func(at, origin bgp.ASN) bool { return origin != reject || at%k != 0 }
		}
		if err := CheckRoutesAgainstOracle(g, filter, origins...); err != nil {
			t.Fatal(err)
		}
	})
}
