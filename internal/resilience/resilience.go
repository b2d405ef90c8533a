// Package resilience computes Counter-RAPTOR's AS-level hijack
// resilience metric (Sun et al., "Counter-RAPTOR: Safeguarding Tor
// Against Active Routing Attacks") over the compiled Gao-Rexford route
// engine.
//
// For a client AS c and a guard-hosting AS g, the resilience R(c, g) is
// the fraction of potential attacker ASes a that fail to capture c's
// traffic when a originates g's prefix at equal specificity: each AS
// then picks one of the two origins under customer > peer > provider
// preference, and c is captured exactly when its best route's origin is
// the attacker. R close to 1 means almost no attacker position can
// steal the client-to-guard path.
//
// The all-pairs structure is what makes this affordable: one two-origin
// route table for the pair (g, a) yields the outcome for every client
// simultaneously, so a full matrix over G guards costs G×|attackers|
// table computations — not clients×G×|attackers|. Compute shards the
// work by guard destination over par.ForEachWorker, the unobserved
// fan-out, so the guard shards are not study trials; each worker keeps
// one set of buffers (engine scratch, table, tallies), indexed by its
// worker index, for every guard it takes, so the run's working memory
// is workers × one table however many pairs it produces. Every
// attacker is enumerated exactly at small scale; at Internet scale a
// per-guard attacker budget is sampled with a reported confidence
// bound. The cost of a matrix is the route engine's: about four
// fifths of it is ComputeRoutesInto (82–84 % of the paper-scale matrix's
// CPU on two vCPUs, with one 8-byte key per AS), the rest the
// per-client tally, which reads each key's origin index. A matrix is
// computed once per call and not cached: its one product caller, E10,
// asks for one matrix per world. The brute-force reference the matrix is
// proven against is testkit.CheckResilienceExact, on the testkit route
// oracle.
package resilience

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"quicksand/internal/bgp"
	"quicksand/internal/par"
	"quicksand/internal/topology"
)

// Config parameterises one resilience matrix.
type Config struct {
	// Guards are the guard-hosting destination ASes, one matrix row
	// group each. They must be distinct and present in the graph.
	Guards []bgp.ASN
	// Attackers is the sampled per-guard attacker budget; 0 (or any
	// value >= the full population) enumerates every other AS exactly.
	Attackers int
	// Seed derives the per-guard attacker samples (ignored when exact).
	// Matrices are bit-identical for any worker count.
	Seed int64
	// Workers bounds the shard parallelism; <1 means one per CPU.
	Workers int
}

// exact reports whether cfg enumerates the full attacker population of
// an n-AS graph (every AS but the guard itself).
func (cfg Config) exact(n int) bool {
	return cfg.Attackers <= 0 || cfg.Attackers >= n-1
}

// Matrix is an all-pairs resilience table: R(c, g) for every client AS
// c in the graph and every configured guard AS g. It is immutable and
// safe for concurrent use.
type Matrix struct {
	c      *topology.Compiled
	guards []bgp.ASN
	gidx   map[bgp.ASN]int
	res    [][]float64 // res[guard index][client id]
	tables int         // hijack tables computed
	budget int         // attackers per guard (population size when exact)
	bound  float64     // 95% half-width of the sampling error; 0 when exact
}

// Pairs returns the number of (client, guard) resilience values held.
func (m *Matrix) Pairs() int { return len(m.guards) * m.c.Len() }

// Tables returns the number of two-origin route tables computed.
func (m *Matrix) Tables() int { return m.tables }

// Attackers returns the per-guard attacker count: the sampled budget,
// or the full population size minus one when exact.
func (m *Matrix) Attackers() int { return m.budget }

// ErrorBound95 returns the 95% confidence half-width of each sampled
// R value (0 exactly when every attacker was enumerated): a conservative normal bound for the
// mean of Bernoulli draws, with the finite-population correction for
// sampling attackers without replacement.
func (m *Matrix) ErrorBound95() float64 { return m.bound }

// R returns the resilience of client toward guard; ok is false when
// client is not in the graph or guard is not a configured destination.
func (m *Matrix) R(client, guard bgp.ASN) (float64, bool) {
	gi, ok := m.gidx[guard]
	if !ok {
		return 0, false
	}
	id, ok := m.c.ID(client)
	if !ok {
		return 0, false
	}
	return m.res[gi][id], true
}

// errorBound95 is the conservative 95% half-width for a mean of m
// Bernoulli samples drawn without replacement from a population of
// size pop: 1.96·sqrt(0.25/m)·sqrt((pop-m)/(pop-1)).
func errorBound95(m, pop int) float64 {
	if m >= pop {
		return 0
	}
	fpc := float64(pop-m) / float64(pop-1)
	return 1.96 * math.Sqrt(0.25/float64(m)) * math.Sqrt(fpc)
}

// Compute builds the all-pairs resilience matrix for cfg on g's current
// compiled snapshot. The computation shards by guard destination: each
// shard computes one two-origin hijack table per attacker in its
// worker's scratch and accumulates per-client capture counts, so the
// whole run allocates a bounded number of table buffers no matter how
// many pairs it produces. met carries nothing (see Metrics): pass nil.
func Compute(g *topology.Graph, cfg Config, met *Metrics) (*Matrix, error) {
	c := g.Compiled()
	n := c.Len()
	if n < 3 {
		return nil, fmt.Errorf("resilience: need at least 3 ASes, have %d", n)
	}
	if len(cfg.Guards) == 0 {
		return nil, fmt.Errorf("resilience: no guard ASes configured")
	}
	guardIDs := make([]int32, len(cfg.Guards))
	seen := make(map[bgp.ASN]bool, len(cfg.Guards))
	for i, asn := range cfg.Guards {
		id, ok := c.ID(asn)
		if !ok {
			return nil, fmt.Errorf("resilience: guard AS %v not in graph", asn)
		}
		if seen[asn] {
			return nil, fmt.Errorf("resilience: duplicate guard AS %v", asn)
		}
		seen[asn] = true
		guardIDs[i] = id
	}

	exact := cfg.exact(n)
	budget := n - 1
	if !exact {
		budget = cfg.Attackers
	}

	m := &Matrix{
		c:      c,
		guards: append([]bgp.ASN(nil), cfg.Guards...),
		gidx:   make(map[bgp.ASN]int, len(cfg.Guards)),
		res:    make([][]float64, len(cfg.Guards)),
		budget: budget,
	}
	for i, asn := range m.guards {
		m.gidx[asn] = i
	}
	if !exact {
		m.bound = errorBound95(budget, n-1)
	}

	// One shardBuf per worker, reused from guard to guard: the worker
	// count, not allocation, bounds the run's working memory.
	bufs := make([]shardBuf, min(par.Workers(cfg.Workers), len(cfg.Guards)))
	for i := range bufs {
		bufs[i] = shardBuf{counts: make([]int32, n), inSample: make([]bool, n), swap: make(map[int]int),
			rng: par.NewRand(0)}
	}
	tableCounts := make([]int, len(cfg.Guards))
	err := par.ForEachWorker(len(bufs), len(cfg.Guards), func(w, gi int) error {
		b := &bufs[w]
		gID, gASN := guardIDs[gi], m.guards[gi]
		clear(b.counts)
		clear(b.inSample)
		b.attackers = b.attackers[:0]
		if exact {
			for id := int32(0); id < int32(n); id++ {
				if id != gID {
					b.attackers = append(b.attackers, id)
				}
			}
		} else {
			b.rng.Seed(par.TrialSeed(cfg.Seed, gi))
			b.attackers = sampleIDs(b.attackers, b.swap, b.rng, n, gID, budget)
		}
		for _, aid := range b.attackers {
			b.inSample[aid] = true
		}
		for _, aid := range b.attackers {
			aASN := c.ASN(int(aid))
			var err error
			b.routes, err = c.ComputeRoutesInto(b.routes, &b.scratch, nil,
				topology.Origin{ASN: gASN}, topology.Origin{ASN: aASN})
			if err != nil {
				return err
			}
			for id := 0; id < n; id++ {
				// Counted without a branch, which would mispredict on
				// near coin-flip captures: the matrix runs about a fifth
				// faster so (EXPERIMENTS.md, "A route is one key").
				captured := int32(0)
				if b.routes.OriginIndex(id) == 1 { // routes to the attacker
					captured = 1
				}
				b.counts[id] += captured
			}
		}
		r := make([]float64, n)
		for id := 0; id < n; id++ {
			den, captured := len(b.attackers), int(b.counts[id])
			if b.inSample[id] {
				// The table where this client itself attacks counted
				// its own origin route as a capture; the client is
				// not its own adversary, so drop that draw.
				den--
				captured--
			}
			if den <= 0 {
				r[id] = 1
			} else {
				r[id] = 1 - float64(captured)/float64(den)
			}
		}
		m.res[gi] = r
		tableCounts[gi] = len(b.attackers)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, t := range tableCounts {
		m.tables += t
	}
	return m, nil
}

// shardBuf is one worker's working memory, reused for every guard the
// worker takes: the route engine's scratch, the table it fills, the
// per-guard tallies, and the random stream each guard reseeds.
type shardBuf struct {
	scratch   topology.Scratch
	routes    *topology.CompiledRoutes
	counts    []int32 // captures per client id
	inSample  []bool  // client id is one of this guard's attackers
	attackers []int32
	swap      map[int]int // sampleIDs' sparse permutation
	rng       *rand.Rand
}

// sampleIDs appends m distinct ids drawn uniformly from [0, n) \ {skip}
// to dst, via a sparse partial Fisher-Yates over the n-1 remaining ids
// held in swap (cleared first). The result is sorted for deterministic
// iteration order.
func sampleIDs(dst []int32, swap map[int]int, rng *rand.Rand, n int, skip int32, m int) []int32 {
	pop := n - 1
	clear(swap)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(pop-i)
		vj, ok := swap[j]
		if !ok {
			vj = j
		}
		vi, ok := swap[i]
		if !ok {
			vi = i
		}
		swap[j] = vi
		id := int32(vj)
		if id >= skip {
			id++
		}
		dst = append(dst, id)
	}
	slices.Sort(dst)
	return dst
}
