package testkit

import (
	"fmt"
	"math"

	"quicksand/internal/bgp"
	"quicksand/internal/resilience"
	"quicksand/internal/topology"
)

// CheckResilienceExact computes an exact all-pairs resilience matrix
// with the sharded engine and diffs (client, guard) entries against the
// independent brute-force reference, exactR, which walks the naive route
// oracle attacker by attacker. It returns the first disagreement. This
// is the resilience analogue of CheckRoutesAgainstOracle: the production
// path and the reference differ in route computation, sharding, and
// accumulation order, so agreement is strong evidence the matrix is
// right.
//
// The reference costs one oracle table per (guard, attacker), so keep
// the graph small; clients bounds only the rows read (nil checks every
// AS).
func CheckResilienceExact(g *topology.Graph, guards []bgp.ASN, clients []bgp.ASN, workers int) error {
	mx, err := resilience.Compute(g, resilience.Config{Guards: guards, Workers: workers}, nil)
	if err != nil {
		return fmt.Errorf("testkit: resilience engine: %w", err)
	}
	if !mx.Exact() {
		return fmt.Errorf("testkit: matrix with %d attackers not exact", mx.Attackers())
	}
	if clients == nil {
		clients = g.ASNs()
	}
	for _, guard := range guards {
		want, err := exactR(g, guard, clients)
		if err != nil {
			return fmt.Errorf("testkit: oracle guard %v: %w", guard, err)
		}
		for i, client := range clients {
			got, ok := mx.R(client, guard)
			if !ok {
				return fmt.Errorf("testkit: matrix has no entry for client %v guard %v", client, guard)
			}
			if math.Abs(got-want[i]) > 1e-12 {
				return fmt.Errorf("testkit: R(client %v, guard %v) = %v, oracle says %v",
					client, guard, got, want[i])
			}
		}
	}
	return nil
}

// exactR computes R(client, guard) for each of clients by brute force:
// one two-origin NaiveRoutes table per candidate attacker, reading the
// clients' rows. A client is not its own adversary, so the table where
// it attacks is left out of its tally. The table for a (guard, attacker)
// pair is computed once and read for every client — computing it per
// (client, guard, attacker) is the same arithmetic, clients times slower.
func exactR(g *topology.Graph, guard bgp.ASN, clients []bgp.ASN) ([]float64, error) {
	total := make([]int, len(clients))
	captured := make([]int, len(clients))
	for _, attacker := range g.ASNs() {
		if attacker == guard {
			continue
		}
		rt, err := NaiveRoutes(g, nil, topology.Origin{ASN: guard}, topology.Origin{ASN: attacker})
		if err != nil {
			return nil, err
		}
		for i, client := range clients {
			if client == attacker {
				continue
			}
			total[i]++
			if r, ok := rt[client]; ok && r.Origin == attacker {
				captured[i]++
			}
		}
	}
	out := make([]float64, len(clients))
	for i := range clients {
		out[i] = 1
		if total[i] > 0 {
			out[i] = 1 - float64(captured[i])/float64(total[i])
		}
	}
	return out, nil
}
