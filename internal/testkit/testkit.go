// Package testkit is the repository's verification subsystem: a
// deterministic, seed-driven toolkit that every refactor and performance
// PR runs against before touching the experiment pipeline.
//
// The paper's conclusions rest on simulated routing state being correct —
// a silently invalid Gao-Rexford path or a lossy MRT round-trip skews
// every downstream hijack and interception number. The kit therefore
// layers four kinds of machinery:
//
//   - Scenario generators (generate.go): randomized-but-reproducible
//     topologies, worlds, consensuses, churn traces, and codec payloads,
//     all pure functions of a seed.
//   - Invariant checkers (invariants.go): Gao-Rexford/valley-free
//     validity for every path a simulated update stream carries,
//     byte-exact round-trip identity for the bgp/mrt/pcap/torconsensus
//     codecs, and chi-square agreement between empirical torpath relay
//     selection and the analytic bandwidth weights.
//   - A differential routing oracle (oracle.go): an independent, naive
//     message-passing implementation of policy routing whose fixpoint is
//     diffed AS-by-AS against topology's compiled engine, the one route
//     computation under every bgpsim stream and attack study.
//   - Golden-file helpers (golden.go): byte-exact pinning of seeded
//     experiment outputs under results/golden/ with a -update refresh
//     flag.
//
// Everything here is deterministic for a given seed, so failures
// reproduce with plain `go test -run <name>`.
package testkit

import (
	"math/rand"

	"quicksand/internal/par"
)

// Rand returns a deterministic RNG for trial i of the stream rooted at
// seed, using the same splitmix64 derivation as the parallel experiment
// engine so testkit scenarios and experiment trials never correlate by
// accident.
func Rand(seed int64, i int) *rand.Rand {
	return par.NewRand(par.TrialSeed(seed, i))
}
