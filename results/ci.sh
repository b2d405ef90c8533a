#!/bin/sh
# Full CI gate. Every correctness check is an ordinary named test, so no
# step below selects tests or benchmarks by name:
#
#   1. gofmt (no unformatted files)
#   2. go build ./...                 (tier-1)
#   3. go vet ./...
#   4. go test ./... with coverage    (tier-1: differentials, goldens,
#      metrics lint, serve/fleet smokes, and the paper-scale and 73K
#      gates — every AS routed, <= 24 B per AS-table entry, E10 capture
#      margin > 0, sampled-estimator agreement >= 0.9)
#   5. go test -race ./...            (the paper-scale and 73K tests
#      skip themselves under the race detector)
#   6. bench module: bench/ is its own Go module (root ./... does not
#      cover it) compiled against monitord, fleet, bgpd and obs
#   7. every Benchmark* for one iteration with -benchmem, so none can
#      rot unrun and allocs/op prints beside ns/op (the ingest, iptrie
#      and defense benchmarks are where an allocation creeping back into
#      the update path shows first)
#   8. retired names: code and records deleted for bench/, for the one
#      route engine and exposition parser, or with the fleet's remote
#      mode and the daemon's private RIB file are named nowhere outside
#      the history files
#   9. fuzz smoke: every Fuzz* target for FUZZTIME (default 10s)
#  10. per-package coverage floors (see floor() below)
#
# Speed is not measured here: that is `bash bench/run.sh` over the
# workloads of BENCHMARK.json, per layer and end to end.
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

echo "== bench module (own go.mod; root ./... does not cover it) =="
# bench/ compiles against monitord.SeqAlert, MaxAlertsPerRequest,
# monitord.New, fleet.New and obs.ParseExposition: vet and smoke-test it
# so an internals change cannot break the benchmark unnoticed.
(cd bench && go vet ./... && go test ./...)

echo "== every benchmark, one iteration =="
go test -run '^$' -bench . -benchtime 1x -benchmem ./...

echo "== retired names =="
# The in-tree load harness (PR 14), the map route engine and testkit's
# exposition parser (PR 15), the shell perf harness with its records and
# 73K subcommand (PR 16), and the fleet's remote-shard mode, the daemon's
# private RIB file and two sizing flags (PR 22) are gone; CHANGES.md has
# the history. Each alternative is spelled so this file does not match
# itself.
retired='load(gen|test)|ComputeRoutes(Filtered)|route(Heap)|Parse(Prom)|Prom(Family)'
retired="$retired|bench[.]sh|BENCH_[a-z0-9]+[.]json|topo(Cmd)|quicksand (topo)([^a-z]|\$)"
retired="$retired|Remote(Shard)|remote(Sink)|Remote(s)|Forward(Buffer)|proxy(RIB)|QS(RIB)"
retired="$retired|(Save|Load)(Snapshot)|queue(-depth)|alert(-buffer)"
if stale=$(git grep -nE "$retired" -- . \
    ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!bench'); then
    echo "FAIL: retired names still referenced:" >&2
    echo "$stale" >&2
    exit 1
fi

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
    if (pkg == "quicksand/internal/fleet") return 85    # fleet router floor (required)
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
