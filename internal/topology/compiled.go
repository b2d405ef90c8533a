package topology

import (
	"fmt"
	"math"
	"slices"

	"quicksand/internal/bgp"
)

// Compiled is an immutable snapshot of a Graph specialised for route
// computation: ASNs are interned to dense int32 ids (assigned in
// ascending ASN order, so comparing ids is comparing ASNs) and the three
// adjacency classes are stored in CSR form — one flat neighbor slice plus
// an offset slice per class. A snapshot is safe for concurrent use; the
// Graph invalidates it on mutation and recompiles cheaply (see
// Graph.Compiled).
type Compiled struct {
	version uint64
	asns    []bgp.ASN // id -> ASN, ascending
	idOf    map[bgp.ASN]int32

	custOff, peerOff, provOff []int32 // len(asns)+1 offsets into the rows
	cust, peer, prov          []int32 // neighbor ids, ascending per row
}

// Len returns the number of ASes in the snapshot.
func (c *Compiled) Len() int { return len(c.asns) }

// ASN returns the ASN interned at id i.
func (c *Compiled) ASN(i int) bgp.ASN { return c.asns[i] }

// ASNs returns the interned ASNs in id (= ascending ASN) order. The
// slice is the snapshot's own storage: callers must treat it as
// read-only. Bulk consumers (the resilience matrix, differential
// harnesses) iterate it instead of re-sorting Graph.ASNs per call.
func (c *Compiled) ASNs() []bgp.ASN { return c.asns }

// ID returns the dense id of asn, with ok=false when absent.
func (c *Compiled) ID(asn bgp.ASN) (int32, bool) {
	id, ok := c.idOf[asn]
	return id, ok
}

func (c *Compiled) customers(id int32) []int32 {
	return c.cust[c.custOff[id]:c.custOff[id+1]]
}
func (c *Compiled) peers(id int32) []int32 {
	return c.peer[c.peerOff[id]:c.peerOff[id+1]]
}
func (c *Compiled) providers(id int32) []int32 {
	return c.prov[c.provOff[id]:c.provOff[id+1]]
}

// Phase 3's rank key (see ComputeRoutesInto).
const (
	rankIDBits  = 28
	maxRankIDs  = 1<<rankIDBits - 1
	rankTransit = 1 // marks an AS with customers: its route is in dst
)

// rowsOf projects one adjacency class out of an AS node.
type rowsOf func(a *AS) []bgp.ASN

// appendIDs appends the ids of row's ASNs to adj. Per-AS adjacency is
// kept ASN-sorted and ids follow ASN order, so the ids are sorted too.
func (c *Compiled) appendIDs(adj []int32, row []bgp.ASN) []int32 {
	for _, nb := range row {
		adj = append(adj, c.idOf[nb])
	}
	return adj
}

// compileFull builds a snapshot from scratch, fetching each AS once: one
// pass interns the ASes and sets the row offsets, one fills the rows.
func compileFull(g *Graph) *Compiled {
	asns := g.ASNs()
	n := len(asns)
	c := &Compiled{version: g.version, asns: asns, idOf: make(map[bgp.ASN]int32, n),
		custOff: make([]int32, n+1), peerOff: make([]int32, n+1), provOff: make([]int32, n+1)}
	nodes := make([]*AS, n)
	for i, asn := range asns {
		a := g.ases[asn]
		nodes[i], c.idOf[asn] = a, int32(i)
		c.custOff[i+1] = c.custOff[i] + int32(len(a.customers))
		c.peerOff[i+1] = c.peerOff[i] + int32(len(a.peers))
		c.provOff[i+1] = c.provOff[i] + int32(len(a.providers))
	}
	c.cust, c.peer, c.prov = make([]int32, 0, c.custOff[n]), make([]int32, 0, c.peerOff[n]), make([]int32, 0, c.provOff[n])
	for _, a := range nodes {
		c.cust, c.peer, c.prov = c.appendIDs(c.cust, a.customers), c.appendIDs(c.peer, a.peers), c.appendIDs(c.prov, a.providers)
	}
	return c
}

// recompileDelta rebuilds only the rows of ASes marked dirty since old
// was compiled, reusing the interning and every clean row. Valid only
// while the AS set is unchanged (link mutations never add or remove
// ASes).
func recompileDelta(g *Graph, old *Compiled) *Compiled {
	c := &Compiled{version: g.version, asns: old.asns, idOf: old.idOf}
	dirty := make([]int32, 0, len(g.dirty))
	for asn := range g.dirty {
		dirty = append(dirty, c.idOf[asn])
	}
	slices.Sort(dirty)
	c.custOff, c.cust = c.patchCSR(g, dirty, old.custOff, old.cust, func(a *AS) []bgp.ASN { return a.customers })
	c.peerOff, c.peer = c.patchCSR(g, dirty, old.peerOff, old.peer, func(a *AS) []bgp.ASN { return a.peers })
	c.provOff, c.prov = c.patchCSR(g, dirty, old.provOff, old.prov, func(a *AS) []bgp.ASN { return a.providers })
	return c
}

// patchCSR returns one adjacency class of the old snapshot with the
// dirty rows (ascending ids) taken from g instead. A link mutation
// changes two of the three classes at most, and snapshots are immutable,
// so a class none of whose dirty rows changed is shared with the old
// snapshot as is. A changed class costs one copy per clean span and one
// pass shifting the offsets — not one append per row.
func (c *Compiled) patchCSR(g *Graph, dirty []int32, oldOff, oldAdj []int32, pick rowsOf) (off, adj []int32) {
	total, changed := len(oldAdj), false
	for _, id := range dirty {
		row, oldRow := pick(g.ases[c.asns[id]]), oldAdj[oldOff[id]:oldOff[id+1]]
		total += len(row) - len(oldRow)
		changed = changed || !slices.EqualFunc(row, oldRow, func(nb bgp.ASN, nid int32) bool { return c.asns[nid] == nb })
	}
	if !changed {
		return oldOff, oldAdj
	}
	off = make([]int32, len(oldOff))
	adj = make([]int32, 0, total)
	from := int32(0) // first row not yet written
	span := func(to int32) {
		shift := int32(len(adj)) - oldOff[from]
		adj = append(adj, oldAdj[oldOff[from]:oldOff[to]]...)
		for i := from; i <= to; i++ {
			off[i] = oldOff[i] + shift
		}
	}
	for _, id := range dirty {
		span(id)
		adj = c.appendIDs(adj, pick(g.ases[c.asns[id]]))
		from = id + 1
		off[from] = int32(len(adj))
	}
	span(int32(len(c.asns)))
	return off, adj
}

// Compiled returns a route-engine snapshot of the current graph,
// recompiling lazily when mutations occurred since the last call. Link
// mutations (AddLink/AddPeering/RemoveLink on existing ASes) recompile
// only the touched rows; growing the AS set forces a full compile. The
// returned snapshot is shared — callers must not retain it across graph
// mutations if they need fresh adjacency, but an old snapshot stays
// internally consistent.
func (g *Graph) Compiled() *Compiled {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.compiled; c != nil && c.version == g.version {
		return c
	}
	if g.compiled != nil && !g.asAdded {
		g.compiled = recompileDelta(g, g.compiled)
	} else {
		g.compiled = compileFull(g)
	}
	g.dirty = nil
	g.asAdded = false
	return g.compiled
}

// Version returns the graph's mutation counter. Snapshots and caches tag
// themselves with it to detect staleness.
func (g *Graph) Version() uint64 { return g.version }

// Scratch holds the reusable working memory of ComputeRoutesInto so a
// caller computing many tables (one per churn event, one per trial)
// allocates nothing after the first call. The zero value is
// ready to use. A Scratch must not be used concurrently.
type Scratch struct {
	origIDs        []int32 // the call's origins, interned
	frontier, next []int32

	// Per-id phase-1 candidate state, epoch-stamped so rounds reset in
	// O(1) instead of clearing arrays.
	candSeen []uint32
	candNext []int32
	epoch    uint32

	// Phase-3 shortest-first queue: one bucket of ids per path length.
	// Buckets keep their capacity across runs.
	buckets [][]int32
	used    int      // buckets touched by the previous run
	rank    []uint64 // phase-3 rank keys, all n reseeded by every run
}

func (s *Scratch) reset(n int) {
	if cap(s.frontier) < n {
		s.frontier = make([]int32, 0, n)
		s.next = make([]int32, 0, n)
	}
	s.frontier, s.next = s.frontier[:0], s.next[:0]
	if len(s.candSeen) < n {
		s.candSeen = make([]uint32, n)
		s.candNext = make([]int32, n)
		s.rank = make([]uint64, n)
		s.epoch = 0
	}
	if s.epoch >= math.MaxUint32-1 {
		clear(s.candSeen)
		s.epoch = 0
	}
	for i := 0; i < s.used && i < len(s.buckets); i++ {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.used = 0
}

// bucket returns the queue bucket for path length l, growing the bucket
// list as needed.
func (s *Scratch) bucket(l int) *[]int32 {
	for len(s.buckets) <= l {
		s.buckets = append(s.buckets, nil)
	}
	if l+1 > s.used {
		s.used = l + 1
	}
	return &s.buckets[l]
}

// CompiledRoutes is an array-backed route table over a Compiled
// snapshot: routes[id] is the best route of the AS interned at id, with
// Type RouteNone for unrouted ASes. Table converts it to the plain
// RouteTable map.
type CompiledRoutes struct {
	c      *Compiled
	routes []Route
}

// Len returns the number of ASes covered (routed or not).
func (r *CompiledRoutes) Len() int { return len(r.routes) }

// ASN returns the ASN interned at id i.
func (r *CompiledRoutes) ASN(i int) bgp.ASN { return r.c.asns[i] }

// At returns the route of the AS interned at id i; Type is RouteNone
// when it has no route.
func (r *CompiledRoutes) At(i int) Route { return r.routes[i] }

// Route returns asn's best route, with ok=false when asn is unknown or
// unrouted — the two-value map access on a RouteTable.
func (r *CompiledRoutes) Route(asn bgp.ASN) (Route, bool) {
	id, ok := r.c.idOf[asn]
	if !ok || r.routes[id].Type == RouteNone {
		return Route{}, false
	}
	return r.routes[id], true
}

// PathFrom reconstructs the AS path from src to its origin, inclusive on
// both ends: it always starts with src and ends with the origin AS. ok
// is false when src has no route.
func (r *CompiledRoutes) PathFrom(src bgp.ASN) (path []bgp.ASN, ok bool) {
	id, ok := r.c.idOf[src]
	if !ok || r.routes[id].Type == RouteNone {
		return nil, false
	}
	path = append(make([]bgp.ASN, 0, r.routes[id].PathLen+1), src)
	cur := id
	for r.routes[cur].Type != RouteOrigin {
		nh := r.routes[cur].NextHop
		path = append(path, nh)
		nid, ok := r.c.idOf[nh]
		if !ok || r.routes[nid].Type == RouteNone {
			return nil, false // inconsistent table; should not happen
		}
		cur = nid
		if len(path) > len(r.routes)+1 {
			return nil, false // cycle guard
		}
	}
	return path, true
}

// ASPathFrom is PathFrom rendered as a bgp.ASPath (src first, origin
// last), matching what src's BGP neighbors upstream would see minus their
// own prepending.
func (r *CompiledRoutes) ASPathFrom(src bgp.ASN) (bgp.ASPath, bool) {
	p, ok := r.PathFrom(src)
	if !ok {
		return bgp.ASPath{}, false
	}
	return bgp.Sequence(p...), true
}

// Table converts to the map representation (unrouted ASes absent).
func (r *CompiledRoutes) Table() RouteTable {
	rt := make(RouteTable, len(r.routes))
	for i := range r.routes {
		if r.routes[i].Type != RouteNone {
			rt[r.c.asns[i]] = r.routes[i]
		}
	}
	return rt
}

// Routes computes a fresh table on the snapshot; a convenience wrapper
// over ComputeRoutesInto for callers without buffers to reuse.
func (c *Compiled) Routes(s *Scratch, filter ImportFilter, origins ...Origin) (*CompiledRoutes, error) {
	if s == nil {
		s = &Scratch{}
	}
	routes, err := c.ComputeRoutesInto(nil, s, filter, origins...)
	if err != nil {
		return nil, err
	}
	return &CompiledRoutes{c: c, routes: routes}, nil
}

// ComputeRoutesInto is the route engine: it fills dst (grown as needed)
// with every AS's best policy-compliant route toward the given origins
// and returns it, applying the Gao-Rexford export rules and the BGP
// decision process (customer > peer > provider, then shortest AS path,
// then lowest next-hop ASN — ids are ASN-ordered, so id comparisons are
// ASN comparisons). The result is the unique stable routing outcome
// under these preferences; filter (nil accepts everything) is consulted
// before an AS imports a route. testkit.NaiveRoutes, a fixpoint over
// full AS paths that shares no code with this, is the reference every
// differential test compares against.
//
// Three phases — customer routes upward, one peer hop, provider routes
// downward. Frontiers and buckets are walked in whatever order they
// were filled, because no phase's outcome depends on it:
//
//   - Phase 1: a provider's route for the round is the minimum next hop
//     over the frontier customers that export to it, and routes are only
//     written once the whole frontier has been walked, so the round
//     computes a set-minimum and the next frontier is only ever a set.
//   - Phase 2 reads only customer and origin routes and writes only peer
//     routes, so an AS's pick cannot see another's.
//   - Phase 3 drains buckets in increasing path length. While bucket l
//     drains, only routes of length l+1 are written, so every entry of
//     bucket l already holds its final route; and a customer's route is
//     replaced only by a strictly lower next hop at the same length, so
//     it ends as the minimum over its providers in bucket l. Which
//     provider reached it first only decides who appended it to bucket
//     l+1, and it is appended once. An AS without customers exports to
//     nobody and no phase reads its route, so it keeps only the minimum
//     of a rank key, type<<60 | length<<28 | next-hop id, over the
//     offers that scoping and the filter let through. All offers are
//     provider routes, so keys order them by length and then next-hop
//     ASN, as the decision process does; the seed 0 is below every
//     offer, keeping an origin or peer route. A minimum is order-free,
//     so the fold equals the per-offer update. The id field caps the
//     kernel at maxRankIDs (2^28−1) ASes; a larger graph is an error.
func (c *Compiled) ComputeRoutesInto(dst []Route, s *Scratch, filter ImportFilter, origins ...Origin) ([]Route, error) {
	if len(origins) == 0 {
		return dst, fmt.Errorf("topology: no origins")
	}
	n := len(c.asns)
	if n > maxRankIDs {
		return dst, fmt.Errorf("topology: %d ASes exceed the route kernel's limit of %d", n, maxRankIDs)
	}
	origIDs := s.origIDs[:0]
	scoped := false
	for _, o := range origins {
		id, ok := c.idOf[o.ASN]
		if !ok {
			return dst, fmt.Errorf("topology: origin %v not in graph", o.ASN)
		}
		for _, prev := range origIDs {
			if prev == id {
				return dst, fmt.Errorf("topology: duplicate origin %v", o.ASN)
			}
		}
		origIDs = append(origIDs, id)
		if len(o.WithholdFrom) > 0 || len(o.AnnounceOnly) > 0 {
			scoped = true
		}
	}
	s.origIDs = origIDs

	if cap(dst) < n {
		dst = make([]Route, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	s.reset(n)

	// exports reports whether the AS at id u announces its route to
	// neighbor "to"; only origins ever scope their announcements.
	exports := func(u int32, to bgp.ASN) bool {
		for i, oid := range origIDs {
			if oid == u {
				return origins[i].announces(to)
			}
		}
		return true
	}

	// Phase 1 — customer routes, propagated upward in rounds of
	// increasing path length. A round's candidates live in two
	// epoch-stamped arrays; the minimum next hop is taken in id space,
	// which equals ASN space by construction.
	for _, id := range origIDs {
		dst[id] = Route{Type: RouteOrigin, Origin: c.asns[id]}
	}
	s.frontier = append(s.frontier, origIDs...)
	for length := int32(1); len(s.frontier) > 0; length++ {
		s.epoch++
		s.next = s.next[:0]
		for _, u := range s.frontier {
			origin := dst[u].Origin
			for _, p := range c.providers(u) {
				if dst[p].Type != RouteNone {
					continue // settled in an earlier round
				}
				if scoped && !exports(u, c.asns[p]) {
					continue
				}
				if filter != nil && !filter(c.asns[p], origin) {
					continue
				}
				if s.candSeen[p] != s.epoch {
					s.candSeen[p] = s.epoch
					s.candNext[p] = u
					s.next = append(s.next, p)
				} else if u < s.candNext[p] {
					s.candNext[p] = u
				}
			}
		}
		for _, p := range s.next {
			u := s.candNext[p]
			dst[p] = Route{Type: RouteCustomer, NextHop: c.asns[u], PathLen: length, Origin: dst[u].Origin}
		}
		s.frontier, s.next = s.next, s.frontier
	}

	// Phase 2 — single-hop peer routes for unsettled ASes. Only customer
	// and origin routes are offered, so peer routes never chain off each
	// other. An AS without peers (most of a 73K graph) is skipped on its
	// CSR offsets alone, before its route is loaded.
	for id := int32(0); id < int32(n); id++ {
		if c.peerOff[id] == c.peerOff[id+1] || dst[id].Type != RouteNone {
			continue
		}
		best := Route{Type: RouteNone}
		for _, p := range c.peers(id) {
			rp := &dst[p]
			if rp.Type != RouteCustomer && rp.Type != RouteOrigin {
				continue
			}
			if scoped && !exports(p, c.asns[id]) {
				continue
			}
			if filter != nil && !filter(c.asns[id], rp.Origin) {
				continue
			}
			r := Route{Type: RoutePeer, NextHop: c.asns[p], PathLen: rp.PathLen + 1, Origin: rp.Origin}
			if best.Type == RouteNone || r.PathLen < best.PathLen ||
				(r.PathLen == best.PathLen && r.NextHop < best.NextHop) {
				best = r
			}
		}
		dst[id] = best
	}

	// Phase 3 — provider routes, shortest-first: one bucket of ids per
	// path length, drained in length order. Only an AS with customers
	// has anyone to export to, so only those are queued — at 73K ASes,
	// one in twenty; every other AS folds its offers into its rank key.
	rank := s.rank[:n]
	for id := int32(0); id < int32(n); id++ {
		switch {
		case c.custOff[id] != c.custOff[id+1]:
			rank[id] = rankTransit
			if dst[id].Type != RouteNone {
				b := s.bucket(int(dst[id].PathLen))
				*b = append(*b, id)
			}
		case dst[id].Type == RouteNone:
			rank[id] = math.MaxUint64
		default:
			rank[id] = 0
		}
	}
	for l := 0; l < s.used; l++ {
		nl := int32(l + 1)
		for _, u := range s.buckets[l] {
			asn, origin := c.asns[u], dst[u].Origin
			cand := uint64(RouteProvider)<<60 | uint64(nl)<<rankIDBits | uint64(u)
			for _, ch := range c.customers(u) {
				r, rc := rank[ch], &dst[ch]
				if r == rankTransit && rc.Type != RouteNone && (rc.Type != RouteProvider || rc.PathLen < nl ||
					(rc.PathLen == nl && rc.NextHop <= asn)) {
					continue
				}
				if scoped && !exports(u, c.asns[ch]) {
					continue
				}
				if filter != nil && !filter(c.asns[ch], origin) {
					continue
				}
				if r != rankTransit {
					rank[ch] = min(r, cand)
					continue
				}
				if rc.Type == RouteNone {
					b := s.bucket(l + 1)
					*b = append(*b, ch)
				}
				*rc = Route{Type: RouteProvider, NextHop: asn, PathLen: nl, Origin: origin}
			}
		}
	}
	for id, r := range rank {
		if RouteType(r>>60) == RouteProvider {
			nh := int32(r & maxRankIDs)
			dst[id] = Route{Type: RouteProvider, NextHop: c.asns[nh], PathLen: int32(uint32(r >> rankIDBits)), Origin: dst[nh].Origin}
		}
	}
	return dst, nil
}
