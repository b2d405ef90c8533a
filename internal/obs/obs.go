// Package obs is the repository's observability substrate: a stdlib-only
// metrics registry with Prometheus text-format exposition and a strict
// parser for it, structured logging on log/slog with a shared
// component/run-ID convention, and lightweight span tracing (JSONL
// trace files plus an in-memory per-phase wall-time summary).
//
// Each piece is used where it is read. The paper's §5 countermeasure is
// a monitor an operator watches, so the registry backs the daemon's
// /metrics: `quicksand serve` puts the monitord_*, fleet_* and bgpd_*
// families on its one HTTP API, next to opt-in pprof. The batch
// binaries (the experiments, bgpgen, torgen) answer their questions
// after the run, so they get a tracer (-trace FILE, see OpenTrace) and,
// for the experiments, -v progress logs — no metrics endpoint.
//
// Design rules:
//
//   - Near-zero cost when disabled. Every handle (*Counter, *Gauge,
//     *Histogram, *Span) is nil-safe: methods on nil receivers no-op, so
//     instrumentation points need no conditionals and a nil registry or
//     tracer turns the whole layer into a handful of predictable
//     nil-check branches.
//   - Hot-path operations are single atomic ops. Counters and gauges
//     are one atomic add/store; histograms are one atomic add per bucket
//     walk. Anything that needs structure traversal (queue depths, RIB
//     sizes, session tables) is sampled at exposition time through
//     Collect callbacks instead of being maintained inline.
//   - Deterministic exposition. Families are rendered in sorted name
//     order and series in sorted label order, so output is stable across
//     runs and pinnable with golden tests.
//   - No dependencies. The registry, tracer, and logger are plain
//     stdlib; nothing here may import another quicksand package.
package obs
