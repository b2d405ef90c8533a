#!/bin/sh
# Full CI gate — everything bench.sh checks plus formatting, fuzz smoke
# tests and coverage floors:
#
#   1. gofmt (no unformatted files)
#   2. go build ./...                 (tier-1)
#   3. go vet ./...
#   4. go test ./...                  (tier-1; includes the testkit
#      invariant/differential layers and the golden regression suite)
#   5. go test -race ./...
#   6. route-engine differential: the compiled engine vs the naive
#      oracle (internal/testkit), the one reference, including delta
#      recompilation and the subsampled power-law differential at 2K-8K
#      ASes
#   7. resilience differential under -race: the sharded Counter-RAPTOR
#      engine vs the brute-force oracle, the sampled estimator vs the
#      exact matrix, and worker-count invariance
#   8. serve smoke: the loopback monitord end-to-end tests under -race
#      (including ingest-batch-size alert equivalence and 4-octet
#      origins at the default -asn), plus the observability wiring
#      (-metrics-addr/-pprof) smoke test
#   9. RIB snapshot round trip: save/restore through the versioned
#      binary snapshot must reproduce the RIB exactly and replay
#      restored routes through the monitor
#  10. metrics lint: every Prometheus exposition (monitord, obs, serve)
#      through the internal/testkit linter, which reads them with the
#      one parser, obs.ParseExposition, including live-scraped and
#      fleet-aggregated expositions (LintPromURL)
#  11. fleet router smoke under -race: the sharded watchlist router end
#      to end (BGP + HTTP + merged alerts), the shard-death failover
#      test, the fleet-vs-batch alert-multiset equivalence at widths 1
#      and 4, the daemon/router HTTP conformance table, the fleet
#      metrics golden, and the -fleet arm of the serve subcommand
#  12. bench module: bench/ is its own Go module (root ./... does not
#      cover it) compiled against monitord, fleet, bgpd and obs
#  13. record hygiene: every results/BENCH_*.json belongs to a section
#      of bench.sh and every record bench.sh names exists; the retired
#      in-tree load harness (replaced by bench/, see CHANGES.md PR 14)
#      and the retired map route engine and second exposition parser
#      (CHANGES.md PR 15) are named nowhere outside the history files
#  14. 73K topology smoke: generate the full-Internet-scale power-law
#      graph, compute a destination shard, and delta-recompile one flap
#      through `quicksand topo`
#  15. fuzz smoke: every Fuzz* target for FUZZTIME (default 10s),
#      including FuzzDeltaRecompile (delta ≡ full after every mutation)
#  16. per-package coverage floors (see floor() below)
#
# Run from anywhere; operates on the repository root. Set FUZZTIME=0 to
# skip the fuzz smoke (e.g. on very slow machines).
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== go test ./... (+coverage) =="
cover_out=$(mktemp)
trap 'rm -f "$cover_out"' EXIT
go test -count=1 -cover ./... | tee "$cover_out"

echo "== go test -race ./... =="
go test -race ./...

echo "== route-engine differential (compiled vs naive oracle) =="
# The compiled engine must agree bit for bit with the testkit fixpoint
# oracle, the only other route computation in the repository — on random
# topologies (single origin, multi-origin hijack, announcement scoping,
# ROV filters), across delta recompilations after graph mutations, and
# through a reused Scratch and the route cache. TestCompiledMatchesLegacy
# keeps its name (and its 32 subtest ids); its reference is the oracle.
go test -count=1 -run 'TestOracleAgrees|TestCompiledEngineAfterMutations|TestCompiledMatchesLegacy|TestCompiledDeltaRecompile|TestCompiledScratchReuse|TestCompiledRoutesAccessors|TestRouteCache|TestScaledDifferential|TestDeltaRecompileRandomChurn' \
    ./internal/testkit/ ./internal/topology/

echo "== resilience differential (sharded engine vs brute-force oracle, -race) =="
# The Counter-RAPTOR matrix must agree with the independent brute-force
# oracle on every checked (client, guard) pair, the sampled estimator
# must land within its reported 95% bound against the exact matrix, and
# results must be bit-identical for any worker count — all under the
# race detector (the engine shards by guard over internal/par).
go test -race -count=1 -run 'TestExactMatchesOracle|TestSampledWithinBound|TestWorkerInvariance|TestEngineCacheVersioning' \
    ./internal/resilience/

echo "== serve smoke (loopback daemon end-to-end, -race) =="
# The monitord acceptance path: boot `quicksand serve` wiring and the
# daemon on loopback, replay an interception over a real BGP session,
# and read alerts/metrics back over HTTP with the race detector on.
go test -race -count=1 -run 'TestServeSmoke|TestServeObsSmoke|TestServeSignalBeforeBoot|TestServeFourOctetOrigins|TestServeEndToEnd|TestCollectorReconnect|TestBatchSizeEquivalence' \
    ./cmd/quicksand/ ./internal/monitord/

echo "== RIB snapshot round trip =="
# Save the live RIB to the versioned binary snapshot and restore it into
# a fresh daemon: the table must round-trip bit for bit (including
# empty-AS_PATH announcements and absent withdrawn prefixes) and the
# restored routes must replay through the streaming monitor.
go test -count=1 -run 'TestSnapshotRoundTrip|TestSnapshotFileRoundTrip|TestSnapshotReplaysThroughMonitor|TestSnapshotRejectsGarbage' \
    ./internal/monitord/

echo "== metrics lint (Prometheus exposition format) =="
# Every text exposition the repository serves — the monitord daemon's
# /metrics, the obs registry writer, the serve wiring, and the
# fleet-aggregated output of the obs scraper — must pass the linter in
# internal/testkit, which parses with obs.ParseExposition, the one
# exposition parser (in-process and over HTTP).
go test -count=1 -run 'TestMetricsLint|TestMetricsGolden|TestExpositionPassesLint|TestServeObsSmoke|TestLintPromURL' \
    ./internal/monitord/ ./internal/obs/ ./cmd/quicksand/ ./internal/testkit/

echo "== fleet router smoke (sharded watchlist + failover + equivalence, -race) =="
# The fleet tentpole under the race detector: the router's longest-
# prefix-aware dispatch over real BGP sessions and the merged HTTP
# surface, the shard-death failover guarantees (survivor continuity,
# bounded redial, post-restart replay), the fleet-vs-batch alert
# multiset equivalence at widths 1 and 4 (including more-specific
# hijacks that must cross shard-hash boundaries), the HTTP conformance
# table both fronts must pass, the fleet /metrics golden, and the -fleet
# arm of serve.
go test -race -count=1 -run 'TestRouterInprocAlerts|TestRouterBGPAndHTTP|TestFleetShardDeathFailover|TestFleetMatchesBatchMonitor|TestHTTPConformance|TestFleetMetricsGolden|TestServeFleetSmoke' \
    ./internal/fleet/ ./internal/testkit/ ./cmd/quicksand/

echo "== bench module (own go.mod; root ./... does not cover it) =="
# bench/ compiles against monitord.SeqAlert, MaxAlertsPerRequest,
# monitord.New, fleet.New and obs.ParseExposition: vet and smoke-test it
# so an internals change cannot break the benchmark unnoticed.
(cd bench && go vet ./... && go test ./...)

echo "== record hygiene (BENCH_*.json <-> bench.sh sections, retired names) =="
# A record nobody regenerates goes stale silently, and a section whose
# record was deleted by hand fails only on the next full bench run: both
# directions are checked here. BENCH_obs.json is hand-recorded; its
# section is the overhead smoke that names it as the baseline.
for f in results/BENCH_*.json; do
    if ! grep -q "^echo \"== .*$f" results/bench.sh; then
        echo "FAIL: $f belongs to no section of results/bench.sh" >&2
        exit 1
    fi
done
for f in $(grep -o 'results/BENCH_[A-Za-z0-9_]*\.json' results/bench.sh | sort -u); do
    if [ ! -f "$f" ]; then
        echo "FAIL: results/bench.sh names $f, which does not exist" >&2
        exit 1
    fi
done
# The in-tree load harness and its two records were retired for bench/
# (bash bench/run.sh). The pattern is spelled so this file does not
# match itself.
if stale=$(git grep -nE 'load(gen|test)|BENCH_(load|fleet)' -- . \
    ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!bench'); then
    echo "FAIL: retired load-harness names still referenced:" >&2
    echo "$stale" >&2
    exit 1
fi
# Likewise the map route engine and testkit's exposition parser, retired
# for the compiled engine + oracle and obs.ParseExposition (PR 15).
if stale=$(git grep -nE 'ComputeRoutes(Filtered)|route(Heap)|Parse(Prom)|Prom(Family)|BENCH_(routes)' -- . \
    ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!bench'); then
    echo "FAIL: retired route-engine / exposition-parser names still referenced:" >&2
    echo "$stale" >&2
    exit 1
fi

echo "== 73K topology smoke (generate + shard + delta recompile) =="
# The full-Internet-scale path end to end: generate 73,000 ASes, compute
# a small destination shard, run a couple of hijack trials, and drive
# link flaps through delta recompilation. Scale-sensitive invariants
# (connectivity, memory budget, delta ≡ full) are covered by the test
# suite; this pins the binary's wiring at real scale.
topo_bin=$(mktemp)
go build -o "$topo_bin" ./cmd/quicksand
"$topo_bin" topo -dests 2 -hijacks 2 -churn 1
rm -f "$topo_bin"

if [ "$FUZZTIME" != "0" ]; then
    echo "== fuzz smoke ($FUZZTIME per target) =="
    # -fuzzminimizetime=1x: on small machines the default 60s minimization
    # budget per new interesting input would eat the whole smoke window.
    for pkg in $(go list ./...); do
        for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
            echo "-- $pkg $target"
            go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" \
                -fuzzminimizetime=1x "$pkg"
        done
    done
fi

echo "== coverage floors =="
# Floors sit safely below current values so routine changes pass while
# real coverage regressions fail. Raise them as coverage improves.
awk '
function floor(pkg) {
    if (pkg == "quicksand/cmd/quicksand") return 40    # main() wiring untested
    if (pkg == "quicksand/cmd/bgpgen") return 50       # main() wiring untested
    if (pkg == "quicksand/cmd/torgen") return 50       # main() wiring untested
    if (pkg == "quicksand/internal/monitord") return 80 # daemon floor (required)
    if (pkg == "quicksand/internal/fleet") return 80    # fleet router floor (required)
    if (pkg == "quicksand/internal/obs") return 80      # observability floor (required)
    if (pkg == "quicksand/internal/topology") return 90 # route-engine floor (required)
    if (pkg == "quicksand/internal/resilience") return 85 # resilience engine floor (required)
    return 80                                          # library packages
}
$1 == "ok" {
    pkg = $2
    pct = ""
    for (i = 3; i <= NF; i++)
        if ($i == "coverage:") { pct = $(i + 1); sub(/%/, "", pct) }
    if (pct == "") next
    printf "%-40s %6.1f%% (floor %d%%)\n", pkg, pct, floor(pkg)
    if (pct + 0 < floor(pkg)) {
        printf "FAIL: %s coverage %.1f%% below floor %d%%\n", pkg, pct, floor(pkg)
        bad = 1
    }
}
END { exit bad }
' "$cover_out"

echo "OK"
