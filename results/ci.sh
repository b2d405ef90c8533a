#!/bin/sh
# Full CI gate. Every correctness check is an ordinary named test, so no
# step below selects tests or benchmarks by name; step 6 records which
# tests kill each mutant:
#
#   1. gofmt (no unformatted files)
#   2. go build ./...                 (tier-1)
#   3. go vet ./...
#   4. go test ./... with coverage    (tier-1: differentials, goldens,
#      metrics lint, serve smokes with and without -fleet, and the
#      paper-scale and 73K
#      gates — every AS routed, <= 12 B per AS-table entry
#      (internal/topology), E10 capture margin > 0 on the paper-scale
#      config (root package), sampled-estimator agreement >= 0.9
#      (internal/resilience))
#   5. go test -race ./...            (the paper-scale and 73K tests
#      skip themselves under the race detector)
#   6. mutant kill matrix (results/mutants/run.sh): each patch under
#      results/mutants/ breaks one security-relevant decision in a
#      throwaway copy of the tree; fails when a patch no longer applies,
#      when a mutant has no confirmed killer or when its fastest
#      confirmed killer takes 1 s or more, and rewrites
#      results/mutants/KILLS.tsv (a diff there is a changed matrix)
#   7. bench module: bench/ is its own Go module (root ./... does not
#      cover it) compiled against monitord, bgpd, obs, iptrie and the
#      fleet package's constructor
#   8. every Benchmark* for one iteration with -benchmem, so none can
#      rot unrun (an allocation creeping back into the update path is
#      failed by TestSessionPathSteadyStateAllocs, TestRejectPathAllocFree
#      and TestComputeRoutesIntoZeroAlloc in steps 4 and 5)
#   9. retired names: code and records deleted for bench/, for the one
#      route engine and exposition parser, with the fleet's remote mode
#      and the daemon's private RIB file, with the unused example
#      programs and AS_PATH helpers, with the fleet's shards, merger and
#      watch table, with the shared observability flags and the batch-only
#      metrics, with the resilience subcommand, with the bit trie, with
#      the worker pools par's one fan-out replaced, with the churn
#      analyses' per-call stream scanners, with the route kernel's rank
#      array and phase-1 candidate arrays, with the MRT record's own
#      UPDATE decoder and two-write record helper, with the resilience
#      matrix cache, the latency opt-out and the one-valued study and
#      session-front options, with the fleet's second session front, peer
#      mirror and duplicate metric families, as exports no product
#      code used (two sweeps) or copies of the one prefix order, or as
#      duplicates of a bench/ metric or of a test the kill matrix keeps
#      are named nowhere outside the history files (Go comments and
#      scripts here; TestDocsCiteOnlyWhatExists checks the Markdown's
#      paths and test names)
#  10. fuzz smoke: every Fuzz* target for FUZZTIME (default 10s)
#  11. per-package coverage floors (see floor() below)
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

echo "== mutant kill matrix =="
sh results/mutants/run.sh

echo "== bench module (own go.mod; root ./... does not cover it) =="
# bench/ compiles against monitord.SeqAlert, MaxAlertsPerRequest,
# monitord.New, fleet.New (the daemon with DropUnwatched set, until the
# fleet workloads go), obs.ParseExposition and iptrie.Trie (its zero
# value, Insert and LongestMatch: why the one prefix index keeps that
# name): vet and smoke-test it so an internals change cannot break the
# benchmark unnoticed.
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
# So are the example programs, the unused AS-relationship inference
# package, bgp.ASPath's unused methods and the second AS_PATH flattener
# (PAPER.md, the original design statement, keeps its table row).
retired="$retired|as(infer)|example(s)/|Same(ASSet)|Has(Loop)|clone(Segment)|func (flattenPath)"
retired="$retired|[.](Prepend|ASes|First)[(]"
# So are the Go benchmarks that timed what a BENCHMARK.json per-layer
# metric now reports, and the tests the kill matrix showed to be
# duplicates (CHANGES.md pairs each with what covers it).
retired="$retired|Benchmark(BuildWorld|SimulateMonth|E1DatasetStats|Fig3Left|Fig3Right)"
retired="$retired|Benchmark(E3Hijack|E4Intercept|E5Defenses|RunSmallWorld|LongestMatch)"
retired="$retired|Benchmark(ComputeRoutesCompiledFresh)|Benchmark(MonitordIngest)([^T]|\$)"
retired="$retired|TestOracle(Agrees)|TestCompiledMatches(Legacy)|Test(Hijack|Intercept|Defense)Study(DeterministicAcrossWorkers)"
# So are the fleet's in-process shards: the hash partition, its copy of
# the watch rule, the alert merger, and the /metrics merge it needed with
# the snapshot renderer only that merge used.
retired="$retired|Merge(Snapshots)|Snapshot(Registry)|Owner(Of)|Partition[(]|Merge(Interval)|watch(Table)"
retired="$retired|TestMerged(RingEviction)|TestOwner(Of)(Partition)"
retired="$retired|write(Plain|Histogram)(Samples)"
# So is the observability flag bundle every binary carried, its second
# HTTP server, and the batch-only metric families nothing read: serve has
# one HTTP surface, the batch binaries keep -trace and -v.
retired="$retired|obs[.](Options)|Start(Server)|metrics(-addr)|New(Observer)"
retired="$retired|par_(task_)|bgpsim_(events_)|resilience_(cache_)|Benchmark(RunObserved|MapObserver)"
# So is E10's own subcommand: its flag set, report struct and 73K phase.
# E10 is the resilience experiment on the shared flags; the 73K check is
# a test in internal/resilience.
retired="$retired|resil(Cmd|Flags|Opts|Report|BigPhase)|printResil(Report)|-big-(guards|attackers)"
retired="$retired|TestResil(Cmd)|TestRunResil(Small)"
# So is the bit trie: its nodes and walks, its prefix check, the public
# word-key helper only its callers needed, and the oracle helpers folded
# into iptrie's TestLongestMatchAgainstReference. iptrie.Trie is the map-
# plus-length-mask index.
retired="$retired|node(\[V\])|check(Prefix)[(]|Addr(Key)[(]|binary (radix) trie|Check(LPM)"
retired="$retired|reference(LPM)|TestInsertThenGet(Quick)"
# So are the hand-rolled worker pools par.ForEachWorker replaced: the
# bounded scratch pool and its shard size, the chunked and index-only
# fan-outs, the churn month's private fan-out, the compiled snapshot's
# fresh-table entry point, and the tests of the pool and the fan-outs.
retired="$retired|Scratch(Pool)|routeSet(Shard)|ForEach(Chunk)|par[.](ForEach)[(]|fan(Out)[(]"
retired="$retired|Compiled[(][)][.](Routes)[(]|TestFor(Each)([^W]|\$)"
# So are the churn analyses' per-call stream scanners and the one-valued
# transfer heuristic: each analysis groups the stream by session once,
# the extra-AS list is ExtraASSets, and guard sets rotate by
# GuardSet.Expired.
retired="$retired|Transfer(Heuristic)([^A-Za-z]|\$)|Extra(ASes)([^A-Za-z]|\$)|ASDwell(Times)"
retired="$retired|ExtraASSession(Counts)|Path(History)|Path(Sample)|PrefixesOn(Session)"
retired="$retired|Selector[)] (Rotate)|[.](Rotate)[(]"
# So is the route kernel's second copy of each route: a table is one
# key per AS, phase 3 takes minimums over it and phase 1 needs no
# per-AS candidate state.
retired="$retired|rank(Transit|IDBits)|cand(Seen|Next)"
# So are the exported names no product code used, the helpers only they
# needed, and the four hand-written copies of the prefix order
# bgp.ComparePrefix replaced. TestExportsHaveProductCallers now fails on
# any new unused name: it type-checks the module and counts a name used
# only when a non-test file resolves an identifier to it outside its own
# declaration (or a type of it implements an interface with the method).
retired="$retired|Count(PathChanges)[(]|GuardExit(Relays)|ISP(Adversary)|DefaultAsymmetric(Config)"
retired="$retired|Visible(Count)|New(StaticOracle)|Final(Frac)|[.](RAt)[(]|(^|[^A-Za-z])(Variance|Std(Dev))[(]"
retired="$retired|Read(Pcap)|AS(PathFrom)|Config(73K)|Append(Canonical)|[.](ByAddr)[(]|SortBy(Bandwidth)"
retired="$retired|Scrape(Target)|[.](Child|Annotate)[(]|obs[.](Float)|(^|[^A-Za-z])TCP(Packet)[(]"
retired="$retired|put(Headers)|check(TCPPacket)|Histogram[)] (Quantile)|compare(Prefix)|sort(Prefixes)"
# So are the exports the second sweep found with no product caller:
# stats' histogram and sum, obs's 64-bit attribute, the circuit's relay
# list, the matrix's client count and the packet headers' encoders (the
# packet tests keep their own), with the stats tests only they needed.
retired="$retired|stats[.](Histogram|Sum)[(]|func (Histogram|Sum)[(]|obs[.](Int64)[(]|func (Int64)[(]"
retired="$retired|[.](Relays|Clients)[(][)]|[*](TCPHeader|IPv4Header)[)] (Marshal)"
retired="$retired|Test(Histogram)(Errors)?[(]|TestMean(Sum)MinMax"
# So are the MRT message's own UPDATE decoder (callers decode Data into a
# reused bgp.Update) and the writer's two-write record helper.
retired="$retired|Message[.](Update)[(]|write(Record)[(]"
# So are the names the type-checked scan found unused: bgp's pre-Into
# decoders, unused attribute flag and ASPath methods, bgpd's Collect and
# session accessors, the accessors of Sim, Series, Trie, Histogram, Gauge,
# Matrix, Engine, Compiled, RouteCache, RouteSet and Scratch that only
# tests read, the metrics no binary exported, the ASAwareSelector knob
# nothing set, and the tests of the deleted code.
retired="$retired|parse(Prefixes|ASPath|Attributes)[(]|flag(Partial)|ASPath[)] (Origin|Equal)[(]"
retired="$retired|Collected(Update)|func (Collect)[(]|Session[)] (Done)[(]|local(AS):"
retired="$retired|Sim[)] (Graph|Origins)[(]|Series[)] (Total)[(]|Trie\\[V\\][)] (Get|Len)[(]|alert(Count)[(]"
retired="$retired|Histogram[)] (Count)[(]|Gauge[)] (Set)[(]|Matrix[)] (Guards|Version|MemoryBytes)[(]"
retired="$retired|Engine[)] (Graph)[(]|Compiled[)] (ASNs|MemoryBytes)[(]|RouteCache[)] (Graph)[(]"
retired="$retired|RouteSet[)] (Graph|Table|MemoryBytes)[(]|Size(Bytes)[(]|Max(Attempts)"
retired="$retired|resilience[.](NewMetrics)|shard(Buckets)|observe(Shard)|Shard(Seconds)|resilience_(pairs|tables|shard)_"
retired="$retired|TestASPath(Origin|Equal)|TestCollect(StopsAtMax|PropagatesReceiveError)|TestMetrics(Exposition)"
# So are the memo and the options only one way of running used: the
# resilience matrix cache and the generic memo under it, the daemon's
# latency opt-out, the ROV study's random deployment order, the study
# and session-front fields no caller set off their default (now
# lower-case constants), the helpers only tests used, and their tests.
retired="$retired|Resilience(Engine)|resilience[.](Engine|NewEngine)|func (NewEngine)[(]|Version(Memo)"
retired="$retired|DisableLatency(Metrics)|stage(On)|Top(Down)|TestEngine(CacheVersioning)|TestLatencyMetrics(Disabled)"
retired="$retired|[.](Circuits)([^A-Za-z]|\$)|(Circuits): [0-9]|(^|[^A-Za-z])(Monitor)LearnFraction"
retired="$retired|(^|[^A-Za-z])Injected(Hijacks)([^A-Za-z]|\$)|(^|[^A-Za-z])Attack(Duration)"
retired="$retired|Establish(Timeout)|DialBackoff(Max)|Dial(HealthyAfter)|Make(Community)|Matrix[)] (Exact)[(]"
# So is the fleet's second session front: its router with the bgpd.Server,
# the peer mirror and registration hook, the filter sink, the daemon's
# hooks only it called, the interfaces only it shared with the daemon,
# the exported stamped read, and the fleet_* families that repeated a
# monitord_* family or a /healthz field. serve -fleet is the daemon with
# Config.DropUnwatched.
retired="$retired|fleet[.](Rout)er|Rout(er)[)]|[.](mirror)[(]|On(Register)|filter(Sink)"
retired="$retired|Report(Sessions)|CountMRT(Records)|Daemon[)] (Sink|Relevant|Intake)[(]|[.](Intake)[(]|monitord[.](Front|ReadMRT)([^A-Za-z]|\$)"
retired="$retired|Alert(Source)|[.]RecvUpdateBatch(Stamped)|[)] RecvUpdateBatch(Stamped)"
retired="$retired|fleet_(redials|sessions_accepted|sessions_active|uptime|shards|watched_prefixes)|fleet_updates_(dropped)"
if stale=$(git grep -nE "$retired" -- . ':!PAPER.md' \
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
    if (pkg == "quicksand/internal/fleet") return 85    # fleet constructor floor (required)
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
