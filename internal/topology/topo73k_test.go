package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"quicksand/internal/bgp"
)

// budgetBytesPerASTable is the pinned memory ceiling for route storage
// at Internet scale: heap growth per (AS, destination) pair when
// building a RouteSet over the 73K-AS topology. A table entry is one
// 8-byte route key (TestRouteLayout); the growth measured here is about
// 10 with the per-worker scratch and allocator slack. The ceiling leaves
// headroom for those but fails loudly if the layout regresses (e.g. a
// table stores a 16-byte Route per AS again, or falls back to maps).
const budgetBytesPerASTable = 12

var topo73k struct {
	once   sync.Once
	g      *Graph
	err    error
	digest string // graphDigest of g as generated, before any test churns it
}

// graph73K returns the shared full-Internet-scale topology, generating
// it once per test binary (~1s). The graph is shared across tests:
// tests may churn links but must never add or remove ASes.
func graph73K(t *testing.T) *Graph {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping 73K-scale test in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping 73K-scale test under -race")
	}
	topo73k.once.Do(func() {
		topo73k.g, topo73k.err = GeneratePowerLaw(DefaultPowerLawConfig(73000))
		if topo73k.err == nil {
			topo73k.digest = graphDigest(topo73k.g)
		}
	})
	if topo73k.err != nil {
		t.Fatalf("generating 73K topology: %v", topo73k.err)
	}
	return topo73k.g
}

// graphDigest hashes g per AS in ascending ASN order: its ASN, tier and
// then its customers, peers and providers, each list length-prefixed
// and in adjacency order.
func graphDigest(g *Graph) string {
	h := sha256.New()
	var buf []byte
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		buf = binary.BigEndian.AppendUint32(buf[:0], uint32(asn))
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.Tier))
		for _, list := range [][]bgp.ASN{a.Customers(), a.Peers(), a.Providers()} {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(list)))
			for _, n := range list {
				buf = binary.BigEndian.AppendUint32(buf, uint32(n))
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPowerLawDigest pins the 73K generator's output bit for bit: the
// routes-73k benchmark's input is this graph, so any change to the
// generator's draws (or to the random source under them) shows here.
func TestPowerLawDigest(t *testing.T) {
	graph73K(t)
	const want = "33e52e8ef64f8230ebe20b988a5c8eb630b9f33e452c79c70139091724768258"
	if topo73k.digest != want {
		t.Errorf("73K graph digest = %s, want %s", topo73k.digest, want)
	}
}

// TestTopo73KSmoke is the 73K correctness gate: the full-Internet
// topology generates, a destination shard computes with every AS routed
// (the graph is connected), and a single-link flap delta-recompiles to
// tables identical to a full recomputation.
func TestTopo73KSmoke(t *testing.T) {
	g := graph73K(t)
	if g.Len() != 73000 {
		t.Fatalf("Len = %d, want 73000", g.Len())
	}

	// Destinations span core, transit, and stub; none is the stub whose
	// link the delta step below flaps (its provider routes toward it via
	// a customer route, which is correctly not locally repairable).
	dests := []bgp.ASN{1, 5000, 36500}
	rs, err := NewRouteSet(g, dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dests {
		routed := 0
		tbl := rs.TableAt(i)
		for id := 0; id < tbl.Len(); id++ {
			if tbl.At(id).Type != RouteNone {
				routed++
			}
		}
		if routed != g.Len() {
			t.Errorf("dest %v: %d of %d ASes routed — graph not connected", d, routed, g.Len())
		}
	}

	// Flap a stub's provider link; delta must equal full recompute both
	// ways, and the removal should resolve as a cheap local repair on at
	// least the unaffected-or-repaired fast path.
	stub := bgp.ASN(73000)
	prov := g.AS(stub).Providers()[0]
	st, err := rs.Apply(Mutation{Op: MutRemoveLink, A: stub, B: prov})
	if err != nil {
		t.Fatal(err)
	}
	if st.Refixpointed != 0 {
		t.Errorf("stub link removal refixpointed %d tables, want all repairs/skips (stats %+v)", st.Refixpointed, st)
	}
	assertTablesMatchFresh(t, rs, "after stub link removal")
	if _, err := rs.Apply(Mutation{Op: MutAddLink, A: prov, B: stub}); err != nil {
		t.Fatal(err)
	}
	assertTablesMatchFresh(t, rs, "after stub link restore")
}

// TestTopo73KMemoryBudget pins the route-storage budget at Internet
// scale: building an 8-destination RouteSet over 73K ASes must grow the
// heap by less than budgetBytesPerASTable per (AS, destination) pair.
// This is the regression tripwire for the key/CSR layout — a table
// entry growing past 8 bytes, or tables regressing to maps, blows the
// ceiling immediately.
func TestTopo73KMemoryBudget(t *testing.T) {
	g := graph73K(t)
	g.Compiled() // pre-build the shared snapshot so it is not billed below

	dests := []bgp.ASN{1, 2, 9000, 9001, 40000, 40001, 72999, 73000}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rs, err := NewRouteSet(g, dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	accounted := 0
	for i := range dests {
		accounted += rs.TableAt(i).MemoryBytes()
	}
	pairs := int64(g.Len()) * int64(len(dests))
	perPair := float64(grown) / float64(pairs)
	t.Logf("heap growth %d bytes for %d AS-destination pairs: %.1f bytes each (accounted: %d)",
		grown, pairs, perPair, accounted)
	if perPair > budgetBytesPerASTable {
		t.Errorf("route storage %.1f bytes per AS-table exceeds the %d-byte budget",
			perPair, budgetBytesPerASTable)
	}

	// The tables' own accounting must cover at least the raw footprint.
	if minAccounted := int(pairs) * keyBytes; accounted < minAccounted {
		t.Errorf("tables account for %d bytes, below the bare table footprint %d", accounted, minAccounted)
	}
	runtime.KeepAlive(rs)
}
