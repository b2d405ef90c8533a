package testkit

import (
	"fmt"
	"sort"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

// NaiveRoutes is the reference implementation of policy-compliant
// route selection: the one oracle every differential test diffs the
// compiled engine (topology.ComputeRoutesInto) against. Where the engine
// is a three-phase propagation over interned ids tuned for speed, this
// is a plain synchronous fixpoint iteration over full AS paths — the
// textbook Gao-Rexford model:
//
//   - every AS repeatedly examines all routes its neighbors exported
//     last round and keeps the best by (customer > peer > provider,
//     shortest path, lowest next-hop ASN);
//   - an AS exports customer and self-originated routes to everyone,
//     peer and provider routes only to its customers; origins apply
//     their WithholdFrom/AnnounceOnly scoping;
//   - routes whose path already contains the importing AS are rejected
//     (BGP loop prevention).
//
// The two implementations share no code beyond the graph accessors, so
// agreement on randomized topologies is strong evidence both are right.
func NaiveRoutes(g *topology.Graph, filter topology.ImportFilter, origins ...topology.Origin) (topology.RouteTable, error) {
	if len(origins) == 0 {
		return nil, fmt.Errorf("testkit: no origins")
	}
	originSpec := make(map[bgp.ASN]topology.Origin, len(origins))
	for _, o := range origins {
		if g.AS(o.ASN) == nil {
			return nil, fmt.Errorf("testkit: origin %v not in graph", o.ASN)
		}
		if _, dup := originSpec[o.ASN]; dup {
			return nil, fmt.Errorf("testkit: duplicate origin %v", o.ASN)
		}
		originSpec[o.ASN] = o
	}

	// Route classes in preference order; the numeric order matches the
	// decision process so routes compare lexicographically.
	const (
		classOrigin = iota
		classCustomer
		classPeer
		classProvider
	)
	type nroute struct {
		class int
		path  []bgp.ASN // this AS first, origin last
	}
	classOf := func(rel topology.Rel) int {
		switch rel {
		case topology.RelCustomer:
			return classCustomer
		case topology.RelPeer:
			return classPeer
		default:
			return classProvider
		}
	}
	// originAnnounces mirrors Origin scoping; non-origin export rules are
	// inlined below.
	originAnnounces := func(from, to bgp.ASN) bool {
		o, isOrigin := originSpec[from]
		if !isOrigin {
			return true
		}
		if o.WithholdFrom[to] {
			return false
		}
		if len(o.AnnounceOnly) > 0 {
			return o.AnnounceOnly[to]
		}
		return true
	}

	all := g.ASNs()
	cur := make(map[bgp.ASN]*nroute, len(all))
	for asn := range originSpec {
		cur[asn] = &nroute{class: classOrigin, path: []bgp.ASN{asn}}
	}

	sameRoute := func(a, b *nroute) bool {
		if a == nil || b == nil {
			return a == b
		}
		if a.class != b.class || len(a.path) != len(b.path) {
			return false
		}
		for i := range a.path {
			if a.path[i] != b.path[i] {
				return false
			}
		}
		return true
	}

	// Synchronous Jacobi iteration: next round's table is computed
	// entirely from the current one. The stable outcome is unique under
	// these preferences, so iteration converges; the cap is a safety
	// net against a broken export rule oscillating forever.
	maxIter := len(all) + 10
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("testkit: naive routing did not converge after %d rounds", maxIter)
		}
		next := make(map[bgp.ASN]*nroute, len(cur))
		changed := false
		for _, v := range all {
			if _, isOrigin := originSpec[v]; isOrigin {
				next[v] = cur[v]
				continue
			}
			var best *nroute
			var bestHop bgp.ASN
			for _, u := range g.Neighbors(v) {
				ru := cur[u]
				if ru == nil {
					continue
				}
				// Export rule at u: customer/origin routes go to every
				// neighbor, peer/provider routes only to u's customers.
				relUV, _ := g.RelBetween(u, v)
				if ru.class == classOrigin {
					if !originAnnounces(u, v) {
						continue
					}
				} else if ru.class != classCustomer && relUV != topology.RelCustomer {
					continue
				}
				origin := ru.path[len(ru.path)-1]
				if filter != nil && !filter(v, origin) {
					continue
				}
				loop := false
				for _, a := range ru.path {
					if a == v {
						loop = true
						break
					}
				}
				if loop {
					continue
				}
				relVU, _ := g.RelBetween(v, u)
				cand := &nroute{class: classOf(relVU), path: append([]bgp.ASN{v}, ru.path...)}
				if best == nil ||
					cand.class < best.class ||
					(cand.class == best.class && len(cand.path) < len(best.path)) ||
					(cand.class == best.class && len(cand.path) == len(best.path) && u < bestHop) {
					best, bestHop = cand, u
				}
			}
			next[v] = best
			if !sameRoute(best, cur[v]) {
				changed = true
			}
		}
		cur = next
		if !changed {
			break
		}
	}

	rt := make(topology.RouteTable, len(cur))
	for asn, r := range cur {
		if r == nil {
			continue
		}
		route := topology.Route{
			PathLen: int32(len(r.path) - 1),
			Origin:  r.path[len(r.path)-1],
		}
		switch r.class {
		case classOrigin:
			route.Type = topology.RouteOrigin
		case classCustomer:
			route.Type = topology.RouteCustomer
			route.NextHop = r.path[1]
		case classPeer:
			route.Type = topology.RoutePeer
			route.NextHop = r.path[1]
		default:
			route.Type = topology.RouteProvider
			route.NextHop = r.path[1]
		}
		rt[asn] = route
	}
	return rt, nil
}

// RouteDiff is one AS where two route tables disagree.
type RouteDiff struct {
	ASN  bgp.ASN
	Got  topology.Route // from the implementation under test
	Want topology.Route // from the oracle
}

func (d RouteDiff) String() string {
	return fmt.Sprintf("%v: got {%v next=%v len=%d origin=%v}, oracle {%v next=%v len=%d origin=%v}",
		d.ASN, d.Got.Type, d.Got.NextHop, d.Got.PathLen, d.Got.Origin,
		d.Want.Type, d.Want.NextHop, d.Want.PathLen, d.Want.Origin)
}

// DiffRoutes compares a route table against the oracle's element-wise
// and returns every disagreement, ASN-ascending. ASes absent from both
// tables agree trivially.
func DiffRoutes(got, want topology.RouteTable) []RouteDiff {
	asns := make(map[bgp.ASN]bool, len(got)+len(want))
	for a := range got {
		asns[a] = true
	}
	for a := range want {
		asns[a] = true
	}
	var diffs []RouteDiff
	for a := range asns {
		if got[a] != want[a] {
			diffs = append(diffs, RouteDiff{ASN: a, Got: got[a], Want: want[a]})
		}
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].ASN < diffs[j].ASN })
	return diffs
}

// CheckRoutesAgainstOracle computes routes for the given origins with
// the compiled engine and the naive oracle, failing on any disagreement
// and reporting the first few diffs.
func CheckRoutesAgainstOracle(g *topology.Graph, filter topology.ImportFilter, origins ...topology.Origin) error {
	want, err := NaiveRoutes(g, filter, origins...)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	got, err := g.Routes(filter, origins...)
	if err != nil {
		return fmt.Errorf("compiled Routes: %w", err)
	}
	diffs := DiffRoutes(got.Table(), want)
	if len(diffs) == 0 {
		return nil
	}
	show := diffs
	if len(show) > 5 {
		show = show[:5]
	}
	msg := ""
	for _, d := range show {
		msg += "\n  " + d.String()
	}
	return fmt.Errorf("compiled route tables disagree with oracle at %d ASes:%s", len(diffs), msg)
}
