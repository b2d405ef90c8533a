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

	transit, peered []int32 // ids with customers, with peers; ascending
}

// Len returns the number of ASes in the snapshot.
func (c *Compiled) Len() int { return len(c.asns) }

// ASN returns the ASN interned at id i.
func (c *Compiled) ASN(i int) bgp.ASN { return c.asns[i] }

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

// A route key is one AS's route packed into a uint64 whose unsigned
// order is the decision process: type<<61 | pathLen<<33 | nextHopID<<5 |
// originIndex. RouteType's declaration order is the preference order,
// and ids are ASN-ordered, so a smaller key is a better route. The
// origin index (into the call's origins) is never a tiebreak: one next
// hop has one origin.
const (
	keyTypeShift = 61
	keyLenShift  = 33
	keyHopShift  = 5
	maxKeyIDs    = 1<<28 - 1        // ids and path lengths
	maxOrigins   = 1 << keyHopShift // origin indices
	keyLenMask   = maxKeyIDs << keyLenShift

	// The two unrouted values sort above every route: an AS with
	// customers starts at unroutedTransit, one without at unroutedStub.
	unroutedTransit = math.MaxUint64 - 1
	unroutedStub    = math.MaxUint64
)

// routeKey packs a route of type t and length l through next hop id hop
// toward origin index oi.
func routeKey(t RouteType, l uint64, hop int32, oi uint64) uint64 {
	return uint64(t)<<keyTypeShift | l<<keyLenShift | uint64(hop)<<keyHopShift | oi
}

// keyType is the route type of k; anything but a route is RouteNone.
func keyType(k uint64) RouteType {
	if t := RouteType(k >> keyTypeShift); t <= RouteProvider {
		return t
	}
	return RouteNone
}

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
// pass interns the ASes, sets the row offsets and lists the ASes with
// customers and with peers, one fills the rows.
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
		if len(a.customers) > 0 {
			c.transit = append(c.transit, int32(i))
		}
		if len(a.peers) > 0 {
			c.peered = append(c.peered, int32(i))
		}
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
	c.transit = patchIDs(old.transit, dirty, c.custOff)
	c.peered = patchIDs(old.peered, dirty, c.peerOff)
	return c
}

// patchIDs returns the ascending id list ids with each dirty id listed
// exactly when its row under off is non-empty. Only dirty ids can change
// membership, so a list none of them changes is shared as is.
func patchIDs(ids, dirty, off []int32) []int32 {
	var out []int32
	from := 0 // first id of ids not yet copied
	for _, d := range dirty {
		i, in := slices.BinarySearch(ids, d)
		if in == (off[d] != off[d+1]) {
			continue
		}
		if out == nil {
			out = make([]int32, 0, len(ids)+len(dirty))
		}
		out, from = append(out, ids[from:i]...), i
		if in {
			from++ // d lost its row
		} else {
			out = append(out, d) // d gained one
		}
	}
	if out == nil {
		return ids
	}
	return append(out, ids[from:]...)
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
// allocates nothing after the first call. None of it is per AS: the
// table itself is the only per-AS state. The zero value is ready to use.
// A Scratch must not be used concurrently.
type Scratch struct {
	origIDs        []int32 // the call's origins, interned
	frontier, next []int32 // phase 1's rounds

	// Phase-3 shortest-first queue: one bucket of ids per path length.
	// Buckets keep their capacity across runs.
	buckets [][]int32
	used    int // buckets touched by the previous run
}

func (s *Scratch) reset() {
	s.frontier, s.next = s.frontier[:0], s.next[:0]
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
// snapshot: keys[id] is the route key of the AS interned at id (one of
// the two unrouted values when it has no route), and origins maps the
// keys' origin indices back to ASNs. At, Route and Table decode keys
// into Routes.
type CompiledRoutes struct {
	c       *Compiled
	keys    []uint64
	origins []bgp.ASN
}

// Len returns the number of ASes covered (routed or not).
func (r *CompiledRoutes) Len() int { return len(r.keys) }

// ASN returns the ASN interned at id i.
func (r *CompiledRoutes) ASN(i int) bgp.ASN { return r.c.asns[i] }

// decode unpacks a route key; an unrouted value is the zero Route.
func (r *CompiledRoutes) decode(k uint64) Route {
	t := keyType(k)
	if t == RouteNone {
		return Route{}
	}
	rt := Route{Type: t, PathLen: int32(k >> keyLenShift & maxKeyIDs), Origin: r.origins[k%maxOrigins]}
	if t != RouteOrigin {
		rt.NextHop = r.c.asns[k>>keyHopShift&maxKeyIDs]
	}
	return rt
}

// At returns the route of the AS interned at id i; Type is RouteNone
// when it has no route.
func (r *CompiledRoutes) At(i int) Route { return r.decode(r.keys[i]) }

// OriginIndex returns the position, among the origins the table was
// computed for, of the origin the AS interned at id i routes to, or -1
// when it has no route.
func (r *CompiledRoutes) OriginIndex(i int) int {
	if k := r.keys[i]; keyType(k) != RouteNone {
		return int(k % maxOrigins)
	}
	return -1
}

// Route returns asn's best route, with ok=false when asn is unknown or
// unrouted — the two-value map access on a RouteTable.
func (r *CompiledRoutes) Route(asn bgp.ASN) (Route, bool) {
	id, ok := r.c.idOf[asn]
	if !ok || keyType(r.keys[id]) == RouteNone {
		return Route{}, false
	}
	return r.decode(r.keys[id]), true
}

// PathFrom reconstructs the AS path from src to its origin, inclusive on
// both ends: it always starts with src and ends with the origin AS. ok
// is false when src has no route. It follows next-hop ids, so only src
// is looked up by ASN.
func (r *CompiledRoutes) PathFrom(src bgp.ASN) (path []bgp.ASN, ok bool) {
	return r.AppendPathFrom(nil, src)
}

// AppendPathFrom appends PathFrom(src) to dst and returns the extended
// slice; when src has no route it returns dst unchanged and false. A
// caller reusing dst's storage reads a path without allocating.
func (r *CompiledRoutes) AppendPathFrom(dst []bgp.ASN, src bgp.ASN) ([]bgp.ASN, bool) {
	id, ok := r.c.idOf[src]
	if !ok || keyType(r.keys[id]) == RouteNone {
		return dst, false
	}
	k := r.keys[id]
	path := dst
	if n := int(min(k>>keyLenShift&maxKeyIDs, uint64(len(r.keys)))) + 1; cap(path)-len(path) < n {
		path = append(make([]bgp.ASN, 0, len(dst)+n), dst...)
	}
	path = append(path, src)
	for keyType(k) != RouteOrigin {
		nid := int(k >> keyHopShift & maxKeyIDs)
		if nid >= len(r.keys) || len(path)-len(dst) > len(r.keys) {
			return dst, false // inconsistent table or cycle; should not happen
		}
		path = append(path, r.c.asns[nid])
		if k = r.keys[nid]; keyType(k) == RouteNone {
			return dst, false // dangling next hop; should not happen
		}
	}
	return path, true
}

// Table converts to the map representation (unrouted ASes absent).
func (r *CompiledRoutes) Table() RouteTable {
	rt := make(RouteTable, len(r.keys))
	for i, k := range r.keys {
		if keyType(k) != RouteNone {
			rt[r.c.asns[i]] = r.decode(k)
		}
	}
	return rt
}

// ComputeRoutesInto is the route engine: it fills dst (nil or a previous
// table, whose arrays are reused) with every AS's best policy-compliant
// route toward the given origins and returns it, applying the
// Gao-Rexford export rules and the BGP decision process (customer > peer
// > provider, then shortest AS path, then lowest next-hop ASN). The
// result is the unique stable routing outcome under these preferences;
// filter (nil accepts everything) is consulted before an AS imports a
// route. testkit.NaiveRoutes, a fixpoint over full AS paths that shares
// no code with this, is the reference every differential test compares
// against.
//
// Routes are route keys, whose unsigned order is the decision process,
// so every phase does one thing with an offer: keys[x] = min(keys[x],
// cand). A minimum is order-free, so no phase depends on the order its
// lists were filled in:
//
//   - Phase 1 (customer routes, upward in rounds of increasing length):
//     a round's offers share type and length, so the smallest key is the
//     lowest next hop; an AS routed in an earlier round holds a smaller
//     key and ignores them, and an AS in the round's frontier holds a
//     shorter route than it is offered.
//   - Phase 2 (one peer hop, over the ASes with peers): peers offer only
//     customer and origin routes and the phase writes only peer routes,
//     so no AS's pick can see another's.
//   - Phase 3 (provider routes, shortest-first, one bucket of ids per
//     path length): while bucket l drains, only keys of length l+1 are
//     written, so every entry of bucket l already holds its final key,
//     and an AS offered routes by several of them ends at their minimum
//     whichever offered first.
//
// Only an AS with customers exports a provider route, so only those are
// queued. That is why there are two unrouted values: an AS starts at
// unroutedTransit when it has customers and at unroutedStub when it has
// none, and phase 3 queues an AS the first time its key leaves
// unroutedTransit; every other AS just keeps the minimum of its offers.
// Keys cap the kernel at maxKeyIDs (2^28−1) ASes and maxOrigins (32)
// origins; more is an error.
func (c *Compiled) ComputeRoutesInto(dst *CompiledRoutes, s *Scratch, filter ImportFilter, origins ...Origin) (*CompiledRoutes, error) {
	if len(origins) == 0 {
		return nil, fmt.Errorf("topology: no origins")
	}
	if len(origins) > maxOrigins {
		return nil, fmt.Errorf("topology: %d origins exceed the route kernel's limit of %d", len(origins), maxOrigins)
	}
	n := len(c.asns)
	if n > maxKeyIDs {
		return nil, fmt.Errorf("topology: %d ASes exceed the route kernel's limit of %d", n, maxKeyIDs)
	}
	origIDs := s.origIDs[:0]
	scoped := false
	for _, o := range origins {
		id, ok := c.idOf[o.ASN]
		if !ok {
			return nil, fmt.Errorf("topology: origin %v not in graph", o.ASN)
		}
		if slices.Contains(origIDs, id) {
			return nil, fmt.Errorf("topology: duplicate origin %v", o.ASN)
		}
		origIDs = append(origIDs, id)
		if len(o.WithholdFrom) > 0 || len(o.AnnounceOnly) > 0 {
			scoped = true
		}
	}
	s.origIDs = origIDs
	s.reset()

	if dst == nil {
		dst = &CompiledRoutes{}
	}
	dst.c = c
	if cap(dst.keys) < n {
		dst.keys = make([]uint64, n)
	}
	keys := dst.keys[:n]
	dst.keys = keys
	for i := range keys {
		keys[i] = unroutedStub
	}
	for _, id := range c.transit {
		keys[id] = unroutedTransit
	}
	dst.origins = dst.origins[:0]
	for i, o := range origins {
		dst.origins = append(dst.origins, o.ASN)
		keys[origIDs[i]] = routeKey(RouteOrigin, 0, 0, uint64(i))
	}

	// imports reports whether the AS at id x takes the offer of u's
	// route, whose key is ku: only origins scope their announcements.
	imports := func(x, u int32, ku uint64) bool {
		if scoped {
			if i := slices.Index(origIDs, u); i >= 0 && !origins[i].announces(c.asns[x]) {
				return false
			}
		}
		return filter == nil || filter(c.asns[x], dst.origins[ku%maxOrigins])
	}
	// Most calls are unscoped and unfiltered: their offers then take a
	// minimum with no data-dependent branch, which at random ids would
	// mispredict as often as not.
	checked := scoped || filter != nil

	// Phase 1 — customer routes, propagated upward in rounds.
	s.frontier = append(s.frontier, origIDs...)
	for l := uint64(1); len(s.frontier) > 0; l++ {
		s.next = s.next[:0]
		for _, u := range s.frontier {
			ku := keys[u]
			cand := routeKey(RouteCustomer, l, u, ku%maxOrigins)
			for _, p := range c.providers(u) {
				old := keys[p]
				if checked && cand < old && !imports(p, u, ku) {
					continue
				}
				keys[p] = min(old, cand)
				if old >= unroutedTransit {
					s.next = append(s.next, p)
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}

	// Phase 2 — single-hop peer routes for the ASes phase 1 left
	// unrouted. Only customer and origin routes are offered, so peer
	// routes never chain off each other.
	for _, x := range c.peered {
		kx := keys[x]
		if kx < unroutedTransit {
			continue
		}
		for _, p := range c.peers(x) {
			kp := keys[p]
			cand := routeKey(RoutePeer, (kp&keyLenMask)>>keyLenShift+1, p, kp%maxOrigins)
			if kp >= uint64(RoutePeer)<<keyTypeShift {
				cand = unroutedStub // unrouted, or a peer or provider route
			}
			if checked && cand < kx && !imports(x, p, kp) {
				continue
			}
			kx = min(kx, cand)
		}
		keys[x] = kx
	}

	// Phase 3 — provider routes, shortest-first, seeded with the routed
	// ASes that have customers.
	for _, id := range c.transit {
		if k := keys[id]; k < unroutedTransit {
			b := s.bucket(int(k >> keyLenShift & maxKeyIDs))
			*b = append(*b, id)
		}
	}
	for l := 0; l < s.used; l++ {
		for _, u := range s.buckets[l] {
			ku := keys[u]
			cand := routeKey(RouteProvider, uint64(l+1), u, ku%maxOrigins)
			for _, ch := range c.customers(u) {
				old := keys[ch]
				if checked && cand < old && !imports(ch, u, ku) {
					continue
				}
				keys[ch] = min(old, cand)
				if old == unroutedTransit {
					b := s.bucket(l + 1)
					*b = append(*b, ch)
				}
			}
		}
	}
	return dst, nil
}
