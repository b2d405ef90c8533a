package topology

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"quicksand/internal/bgp"
	"quicksand/internal/par"
)

const routeBytes = int(unsafe.Sizeof(Route{}))

// SizeBytes returns the heap footprint of the scratch's retained
// buffers. Together with a bounded ScratchPool this makes the working
// memory of a sharded computation an explicit, measurable budget.
func (s *Scratch) SizeBytes() int {
	b := (cap(s.origIDs) + cap(s.frontier) + cap(s.next) + cap(s.candNext)) * 4
	b += len(s.candSeen) * 4
	for i := range s.buckets {
		b += cap(s.buckets[i]) * 4
	}
	return b
}

// MemoryBytes estimates the snapshot's heap footprint: the interning
// table, the id map (conservatively costed at 32 bytes/entry for
// bucket overhead), and the three CSR adjacency structures.
func (c *Compiled) MemoryBytes() int {
	b := len(c.asns) * 4
	b += len(c.idOf) * 32
	b += (len(c.custOff) + len(c.peerOff) + len(c.provOff)) * 4
	b += (len(c.cust) + len(c.peer) + len(c.prov)) * 4
	return b
}

// MemoryBytes returns the heap footprint of the route array.
func (r *CompiledRoutes) MemoryBytes() int { return cap(r.routes) * routeBytes }

// ScratchPool is a bounded pool of route-computation scratch buffers:
// at most Cap scratches ever exist, so the pool's memory ceiling is
// Cap × the per-scratch footprint (which SizeBytes measures) no matter
// how many computations run through it. Get blocks while all scratches
// are in use — that bound, not allocation, is the backpressure.
type ScratchPool struct {
	ch    chan *Scratch
	inUse atomic.Int32
}

// NewScratchPool returns a pool holding capacity scratches (minimum 1).
// Scratches are allocated lazily on first use.
func NewScratchPool(capacity int) *ScratchPool {
	if capacity < 1 {
		capacity = 1
	}
	p := &ScratchPool{ch: make(chan *Scratch, capacity)}
	for i := 0; i < capacity; i++ {
		p.ch <- nil // placeholder: allocated on first Get
	}
	return p
}

// Cap returns the pool's scratch bound.
func (p *ScratchPool) Cap() int { return cap(p.ch) }

// Get takes a scratch, blocking while the pool is exhausted.
func (p *ScratchPool) Get() *Scratch {
	s := <-p.ch
	if s == nil {
		s = new(Scratch)
	}
	p.inUse.Add(1)
	return s
}

// Put returns a scratch taken with Get.
func (p *ScratchPool) Put(s *Scratch) {
	p.inUse.Add(-1)
	p.ch <- s
}

// MemoryBytes sums the footprint of every pooled scratch. It must not
// run concurrently with Get/Put (it drains and refills the pool).
func (p *ScratchPool) MemoryBytes() int {
	if n := p.inUse.Load(); n != 0 {
		panic(fmt.Sprintf("topology: ScratchPool.MemoryBytes with %d scratches in use", n))
	}
	b := 0
	held := make([]*Scratch, 0, cap(p.ch))
	for len(held) < cap(p.ch) {
		s := <-p.ch
		held = append(held, s)
		if s != nil {
			b += s.SizeBytes()
		}
	}
	for _, s := range held {
		p.ch <- s
	}
	return b
}

// MutationOp is the kind of a single-link churn event.
type MutationOp uint8

const (
	// MutRemoveLink deletes whatever relationship exists between A and B.
	MutRemoveLink MutationOp = iota
	// MutAddLink makes B a customer of provider A.
	MutAddLink
	// MutAddPeering makes A and B settlement-free peers.
	MutAddPeering
)

// String returns the op name.
func (op MutationOp) String() string {
	switch op {
	case MutRemoveLink:
		return "remove-link"
	case MutAddLink:
		return "add-link"
	case MutAddPeering:
		return "add-peering"
	}
	return fmt.Sprintf("MutationOp(%d)", int(op))
}

// Mutation is one churn event on the AS graph. For MutAddLink, A is the
// provider and B the customer. Mutations never add or remove ASes —
// that is what keeps delta recompilation valid.
type Mutation struct {
	Op   MutationOp
	A, B bgp.ASN
}

// RouteSet maintains the route tables of a fixed destination set over
// one graph, computed destination-sharded on the worker pool with a
// bounded scratch pool. Apply drives churn through incremental delta
// recompilation: a mutation recomputes only the destinations whose
// stable routing it can affect — decided by an O(1)-per-destination
// check against the current tables — instead of refixpointing every
// table. At Internet scale (73K ASes) single-link churn typically
// touches a handful of the tracked destinations, so delta recompilation
// is an order of magnitude cheaper than RecomputeAll.
//
// Tables are plain single-origin unfiltered computations (the
// RouteCache semantics). A RouteSet is not safe for concurrent use; the
// graph must not be mutated behind its back between Apply calls.
type RouteSet struct {
	g       *Graph
	workers int
	pool    *ScratchPool
	dests   []bgp.ASN
	tables  []*CompiledRoutes
}

// routeSetShard bounds how many destinations one worker computes
// between scratch-pool round trips.
const routeSetShard = 8

// NewRouteSet computes the tables for every destination (distinct,
// present in g) and returns the set. workers <1 means one per CPU; the
// scratch pool is bounded at the worker count.
func NewRouteSet(g *Graph, dests []bgp.ASN, workers int) (*RouteSet, error) {
	if len(dests) == 0 {
		return nil, fmt.Errorf("topology: route set needs at least one destination")
	}
	seen := make(map[bgp.ASN]bool, len(dests))
	for _, d := range dests {
		if g.AS(d) == nil {
			return nil, fmt.Errorf("topology: destination %v not in graph", d)
		}
		if seen[d] {
			return nil, fmt.Errorf("topology: duplicate destination %v", d)
		}
		seen[d] = true
	}
	rs := &RouteSet{
		g:       g,
		workers: par.Workers(workers),
		dests:   append([]bgp.ASN(nil), dests...),
		tables:  make([]*CompiledRoutes, len(dests)),
	}
	rs.pool = NewScratchPool(rs.workers)
	if err := rs.recomputeAll(); err != nil {
		return nil, err
	}
	return rs, nil
}

// Dests returns the tracked destinations in construction order.
func (rs *RouteSet) Dests() []bgp.ASN { return rs.dests }

// Graph returns the underlying graph.
func (rs *RouteSet) Graph() *Graph { return rs.g }

// Table returns the current route table toward dst, with ok=false for
// an untracked destination. It scans the destinations: callers on a hot
// path index with TableAt, and no profile has shown this one.
func (rs *RouteSet) Table(dst bgp.ASN) (*CompiledRoutes, bool) {
	for i, d := range rs.dests {
		if d == dst {
			return rs.tables[i], true
		}
	}
	return nil, false
}

// TableAt returns the i'th destination's table.
func (rs *RouteSet) TableAt(i int) *CompiledRoutes { return rs.tables[i] }

// recompute refreshes the tables at the given indices, sharded over the
// worker pool. Each worker holds one pooled scratch per shard and each
// table's previous array is reused in place.
func (rs *RouteSet) recompute(idx []int) error {
	if len(idx) == 0 {
		return nil
	}
	return par.ForEachChunk(rs.workers, len(idx), routeSetShard, func(lo, hi int) error {
		s := rs.pool.Get()
		defer rs.pool.Put(s)
		for _, i := range idx[lo:hi] {
			cr, err := rs.g.RoutesInto(rs.tables[i], s, nil, Origin{ASN: rs.dests[i]})
			if err != nil {
				return err
			}
			rs.tables[i] = cr
		}
		return nil
	})
}

// recomputeAll refreshes every table.
func (rs *RouteSet) recomputeAll() error {
	idx := make([]int, len(rs.dests))
	for i := range idx {
		idx[i] = i
	}
	return rs.recompute(idx)
}

// RecomputeAll refixpoints every destination from scratch — the full
// recomputation that Apply's delta path avoids; benchmarks compare the
// two.
func (rs *RouteSet) RecomputeAll() error { return rs.recomputeAll() }

// MemoryBytes reports the set's retained footprint: every table, the
// scratch pool, and the compiled snapshot. It must not run concurrently
// with Apply or RecomputeAll.
func (rs *RouteSet) MemoryBytes() int {
	b := rs.pool.MemoryBytes() + rs.g.Compiled().MemoryBytes()
	for _, t := range rs.tables {
		if t != nil {
			b += t.MemoryBytes()
		}
	}
	return b
}

// better reports whether cand beats cur under the decision process:
// route type (RouteType's declaration order is the preference order, so
// the enum value is the rank), then path length, then lowest next hop.
func better(cand Route, cur Route) bool {
	if cur.Type == RouteNone {
		return true
	}
	if cand.Type != cur.Type {
		return cand.Type < cur.Type
	}
	if cand.PathLen != cur.PathLen {
		return cand.PathLen < cur.PathLen
	}
	return cand.NextHop < cur.NextHop
}

// adopts reports whether x would take the route y offers across a new
// x-y adjacency, given the current stable table: y must have a route
// and export it to x (customer/origin routes go to everyone,
// peer/provider routes only to customers), and the offered route —
// classified by relOfY, x's relationship to y — must beat x's current
// best under the decision process. If neither endpoint of a new link
// adopts, the old tables remain the (unique) stable outcome, so the
// destination is provably unaffected.
func adopts(tbl *CompiledRoutes, x, y bgp.ASN, relOfY Rel, xIsCustomerOfY bool) bool {
	ry, ok := tbl.Route(y)
	if !ok {
		return false
	}
	if ry.Type != RouteOrigin && ry.Type != RouteCustomer && !xIsCustomerOfY {
		return false
	}
	var candType RouteType
	switch relOfY {
	case RelCustomer:
		candType = RouteCustomer
	case RelPeer:
		candType = RoutePeer
	default:
		candType = RouteProvider
	}
	cand := Route{Type: candType, NextHop: y, PathLen: ry.PathLen + 1}
	rx, ok := tbl.Route(x)
	if !ok {
		return true
	}
	if rx.Type == RouteOrigin {
		return false
	}
	return better(cand, rx)
}

// touch records that a mutation can change one destination's table.
// When exactly one endpoint's route can change, x names it and single
// is true — the candidate for an O(degree) local repair. repairable is
// false when x's pre-mutation route was customer-type: customer routes
// are exported to every neighbor, so other ASes may route via x and a
// local repair of x alone would miss them.
type touch struct {
	i          int // destination index
	x          bgp.ASN
	single     bool
	repairable bool
}

// affected reports whether m can change tbl's stable routing, and which
// endpoint's route changes when only one can.
//
//   - Removing a link only matters when the link carries traffic in the
//     current routing tree, i.e. one endpoint's next hop is the other:
//     removing an unchosen offer changes no AS's best route. At most
//     one endpoint routes across the link (two would be a cycle).
//   - Adding a link only matters when one endpoint would adopt the
//     route the other newly offers: if neither does, every AS's best is
//     unchanged and the old tables stay the unique stable outcome.
//
// The check is exact for removals and sound (never a false negative,
// occasionally conservative) for additions, which is all delta
// recompilation needs.
func affected(tbl *CompiledRoutes, i int, m Mutation) (touch, bool) {
	switch m.Op {
	case MutRemoveLink:
		if ra, ok := tbl.Route(m.A); ok && ra.Type != RouteOrigin && ra.NextHop == m.B {
			return touch{i: i, x: m.A, single: true, repairable: ra.Type != RouteCustomer}, true
		}
		if rb, ok := tbl.Route(m.B); ok && rb.Type != RouteOrigin && rb.NextHop == m.A {
			return touch{i: i, x: m.B, single: true, repairable: rb.Type != RouteCustomer}, true
		}
		return touch{}, false
	case MutAddLink:
		// A gains customer B; B gains provider A.
		aAd := adopts(tbl, m.A, m.B, RelCustomer, false)
		bAd := adopts(tbl, m.B, m.A, RelProvider, true)
		return classifyAdopts(i, m, aAd, bAd)
	default: // MutAddPeering
		aAd := adopts(tbl, m.A, m.B, RelPeer, false)
		bAd := adopts(tbl, m.B, m.A, RelPeer, false)
		return classifyAdopts(i, m, aAd, bAd)
	}
}

func classifyAdopts(i int, m Mutation, aAd, bAd bool) (touch, bool) {
	switch {
	case !aAd && !bAd:
		return touch{}, false
	case aAd && bAd:
		return touch{i: i}, true // both endpoints move; refixpoint
	case aAd:
		return touch{i: i, x: m.A, single: true, repairable: true}, true
	default:
		return touch{i: i, x: m.B, single: true, repairable: true}, true
	}
}

// localRepair recomputes x's best route toward tbl's destination from
// its neighbors' (unchanged) routes, in place. It is exact precisely
// when x's own route is invisible to the rest of the graph — x has no
// customers, so its peer/provider route is exported to nobody — which
// Apply checks before taking this path. Cost is O(degree(x)) against a
// full O(V+E) refixpoint.
func (rs *RouteSet) localRepair(tbl *CompiledRoutes, x bgp.ASN) {
	ax := rs.g.AS(x)
	best := Route{Type: RouteNone}
	consider := func(y bgp.ASN, rel Rel) {
		ry, ok := tbl.Route(y)
		if !ok {
			return
		}
		// Export rule at y: customer/origin routes go to everyone,
		// peer/provider routes only to y's customers (x is y's customer
		// exactly when y is x's provider).
		if ry.Type != RouteOrigin && ry.Type != RouteCustomer && rel != RelProvider {
			return
		}
		var ct RouteType
		switch rel {
		case RelCustomer:
			ct = RouteCustomer
		case RelPeer:
			ct = RoutePeer
		default:
			ct = RouteProvider
		}
		cand := Route{Type: ct, NextHop: y, PathLen: ry.PathLen + 1, Origin: ry.Origin}
		if better(cand, best) {
			best = cand
		}
	}
	for _, y := range ax.customers {
		consider(y, RelCustomer)
	}
	for _, y := range ax.peers {
		consider(y, RelPeer)
	}
	for _, y := range ax.providers {
		consider(y, RelProvider)
	}
	id, _ := tbl.c.ID(x)
	tbl.routes[id] = best
}

// ApplyStats reports what one Apply recomputed.
type ApplyStats struct {
	// Affected counts destinations whose table the mutation could
	// change (the rest were proven untouched and skipped).
	Affected int
	// Repaired counts affected destinations fixed by an O(degree)
	// in-place local repair.
	Repaired int
	// Refixpointed counts affected destinations recomputed by a full
	// fixpoint.
	Refixpointed int
}

// Apply mutates the graph and delta-recompiles: destinations the
// mutation provably cannot affect are skipped, affected destinations
// whose change is confined to one customer-less AS are repaired in
// place, and only the remainder is refixpointed. The tables afterwards
// are identical to a full RecomputeAll — the fuzz and differential
// suites pin that equivalence.
func (rs *RouteSet) Apply(m Mutation) (ApplyStats, error) {
	var st ApplyStats
	if rs.g.AS(m.A) == nil || rs.g.AS(m.B) == nil {
		return st, fmt.Errorf("topology: mutation %v %v-%v references an unknown AS", m.Op, m.A, m.B)
	}
	// Decide affected destinations against the pre-mutation tables.
	var touched []touch
	for i, tbl := range rs.tables {
		if tc, hit := affected(tbl, i, m); hit {
			touched = append(touched, tc)
		}
	}
	switch m.Op {
	case MutRemoveLink:
		if !rs.g.RemoveLink(m.A, m.B) {
			return st, fmt.Errorf("topology: no link %v-%v to remove", m.A, m.B)
		}
	case MutAddLink:
		if err := rs.g.AddLink(m.A, m.B); err != nil {
			return st, err
		}
	case MutAddPeering:
		if err := rs.g.AddPeering(m.A, m.B); err != nil {
			return st, err
		}
	default:
		return st, fmt.Errorf("topology: unknown mutation op %v", m.Op)
	}
	st.Affected = len(touched)
	var full []int
	for _, tc := range touched {
		// The local repair is exact only when both the old and the new
		// route of tc.x are exported to nobody: the old route was not
		// customer-type (tc.repairable) and the AS has no customers on
		// the post-mutation graph (so a just-gained customer
		// disqualifies, and the new route cannot be customer-type).
		if tc.single && tc.repairable && len(rs.g.AS(tc.x).customers) == 0 {
			rs.localRepair(rs.tables[tc.i], tc.x)
			st.Repaired++
		} else {
			full = append(full, tc.i)
		}
	}
	st.Refixpointed = len(full)
	if err := rs.recompute(full); err != nil {
		return st, err
	}
	return st, nil
}
