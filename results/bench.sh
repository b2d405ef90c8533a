#!/bin/sh
# Tier-1 verification plus the parallel-engine checks:
#
#   1. go build ./...                 (tier-1)
#   2. go test ./...                  (tier-1)
#   3. go vet ./...
#   4. go test -race over the worker pool and every parallel study path
#   5. route-engine benchmark: compiled vs legacy ComputeRoutes at paper
#      scale plus an end-to-end E3 run under each engine, recorded in
#      results/BENCH_routes.json (compiled must hold a >= 3x speedup)
#   6. monitord ingest benchmark: in-process and loopback-TCP pipeline
#      throughput, recorded in results/BENCH_monitord.json (the batched
#      TCP path must hold >= 3x the 238707 updates/s pre-batching
#      baseline)
#   7. 73K topology benchmark: `quicksand topo -json` at the full
#      measured-Internet scale, recorded in results/BENCH_topo73k.json
#      (every AS routed, <= 24 bytes/AS/table, delta recompilation
#      >= 10x faster than full recomputation for single-link churn)
#   8. Counter-RAPTOR resilience benchmark: `quicksand resilience -json`
#      at paper scale plus the 73K sampled-estimator validation,
#      recorded in results/BENCH_resilience.json (resilience weighting
#      must strictly lower capture probability; 73K agreement >= 0.9)
#   9. fleet load harness: `quicksand loadtest -json` — 4 concurrent
#      collector sessions saturating one instrumented instance while
#      tracer hijacks measure end-to-end detection latency, recorded in
#      results/BENCH_loadtest.json (sustained throughput must hold
#      >= 3x the 238707 updates/s pre-batching baseline with the stage
#      histograms live, and the injection-to-alert p99 must stay a
#      finite <= 1s)
#  10. fleet router benchmark: `quicksand loadtest -fleet 4 -json` — the
#      same load against one router sharding the watchlist across 4
#      in-process monitord instances, recorded in
#      results/BENCH_fleet.json (aggregate ingest must hold >= 2x the
#      single saturated daemon of step 9, and the shards' dispatch-stage
#      p99 must stay below the single daemon's saturated dispatch p99 —
#      the router's watchlist fast-path shields them from unwatched
#      background load)
#
# Run from anywhere; operates on the repository root. Pass extra
# arguments (e.g. -count=2) through to the race run.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...

echo "== go test ./... =="
go test ./...

echo "== go vet ./... =="
go vet ./...

echo "== go test -race ./internal/par/ ./... =="
go test -race "$@" ./internal/par/ ./...

echo "== observability overhead smoke (baselines: results/BENCH_obs.json) =="
# One iteration of each instrumented-vs-plain pair: catches gross
# regressions on the disabled path. Full numbers are recorded in
# results/BENCH_obs.json (see its description field to reproduce).
go test -run '^$' -bench 'BenchmarkRunObserved|BenchmarkMapObserver' -benchtime 1x \
    ./internal/bgpsim/ ./internal/par/

echo "== route engine: compiled vs reference (-> results/BENCH_routes.json) =="
# Microbenchmark the compiled engine against the map-based reference
# (ComputeRoutes, kept for the differential tests) on the paper-scale
# generated topology (~1028 ASes), then time E3 (the hijack study) end
# to end.
bench_out=$(mktemp)
go test -run '^$' -bench 'BenchmarkComputeRoutes(Legacy|Compiled)$' \
    -benchtime 2s -benchmem ./internal/topology/ | tee "$bench_out"

e3_bin=$(mktemp)
go build -o "$e3_bin" ./cmd/quicksand
s=$(date +%s%N)
"$e3_bin" -scale small -seed 1 hijack >/dev/null
e=$(date +%s%N)
e3_compiled=$(echo "$s $e" | awk '{ printf "%.3f", ($2 - $1) / 1e9 }')
rm -f "$e3_bin"
echo "E3 hijack study: ${e3_compiled}s"

awk -v e3c="$e3_compiled" -v date="$(date +%Y-%m-%d)" '
$1 ~ /^BenchmarkComputeRoutesLegacy/   { lns = $3; lal = $7 }
$1 ~ /^BenchmarkComputeRoutesCompiled/ { cns = $3; cal = $7 }
END {
    if (lns == "" || cns == "") { print "missing benchmark output" > "/dev/stderr"; exit 1 }
    speedup = lns / cns
    printf "{\n"
    printf "  \"description\": \"Compiled route engine vs the map-based reference ComputeRoutes, single destination on the paper-scale generated topology (~1028 ASes), plus the E3 hijack study end to end. Reproduce with: results/bench.sh\",\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"required_speedup\": 3.0,\n"
    printf "  \"compute_routes\": {\n"
    printf "    \"legacy_ns_per_op\": %s,\n", lns
    printf "    \"legacy_allocs_per_op\": %s,\n", lal
    printf "    \"compiled_ns_per_op\": %s,\n", cns
    printf "    \"compiled_allocs_per_op\": %s,\n", cal
    printf "    \"speedup\": %.1f\n", speedup
    printf "  },\n"
    printf "  \"e3_small_scale\": {\n"
    printf "    \"compiled_seconds\": %s\n", e3c
    printf "  }\n"
    printf "}\n"
    if (speedup < 3.0) { print "FAIL: compiled engine speedup " speedup "x below 3x" > "/dev/stderr"; exit 1 }
}' "$bench_out" > results/BENCH_routes.json
rm -f "$bench_out"
cat results/BENCH_routes.json

echo "== monitord ingest: in-process + loopback TCP (-> results/BENCH_monitord.json) =="
# The TCP number covers the whole serve-mode session path — batched wire
# encode (SendUpdates), loopback TCP, the buffered batch reader
# (RecvUpdateBatch), batched dispatch, live RIB, streaming monitor. It
# is gated against the pre-batching per-message baseline (PR 3).
mon_out=$(mktemp)
go test -run '^$' -bench 'BenchmarkMonitordIngest(TCP)?$' \
    -benchtime 3s ./internal/monitord/ | tee "$mon_out"

awk -v date="$(date +%Y-%m-%d)" '
$1 == "BenchmarkMonitordIngest" || $1 ~ /^BenchmarkMonitordIngest-/    { ipns = $3; ips = $5 }
$1 == "BenchmarkMonitordIngestTCP" || $1 ~ /^BenchmarkMonitordIngestTCP-/ { tns = $3; tps = $5 }
$1 == "cpu:" { $1 = ""; sub(/^ /, ""); cpu = $0 }
END {
    if (ips == "" || tps == "") { print "missing benchmark output" > "/dev/stderr"; exit 1 }
    baseline = 238707
    speedup = tps / baseline
    printf "{\n"
    printf "  \"description\": \"monitord live-pipeline ingest baselines. In-process Ingest() vs the full loopback-TCP session path (batched SendUpdates -> RecvUpdateBatch -> batched dispatch -> RIB + monitor). Reproduce with: results/bench.sh\",\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"tcp_baseline_updates_per_sec\": %d,\n", baseline
    printf "  \"required_tcp_speedup\": 3.0,\n"
    printf "  \"benchmarks\": [\n"
    printf "    {\n"
    printf "      \"name\": \"BenchmarkMonitordIngest\",\n"
    printf "      \"notes\": \"in-process Ingest() into the 8-shard pipeline (RIB apply + streaming monitor), no network\",\n"
    printf "      \"ns_per_op\": %s,\n", ipns
    printf "      \"updates_per_sec\": %d\n", ips
    printf "    },\n"
    printf "    {\n"
    printf "      \"name\": \"BenchmarkMonitordIngestTCP\",\n"
    printf "      \"notes\": \"full path: batched UPDATE bursts over a loopback BGP session into the same pipeline\",\n"
    printf "      \"ns_per_op\": %s,\n", tns
    printf "      \"updates_per_sec\": %d,\n", tps
    printf "      \"speedup_vs_baseline\": %.2f\n", speedup
    printf "    }\n"
    printf "  ]\n"
    printf "}\n"
    if (speedup < 3.0) { print "FAIL: TCP ingest speedup " speedup "x below 3x baseline" > "/dev/stderr"; exit 1 }
}' "$mon_out" > results/BENCH_monitord.json
rm -f "$mon_out"
cat results/BENCH_monitord.json

echo "== 73K topology: generate + route + churn (-> results/BENCH_topo73k.json) =="
# The full measured-Internet scale from the paper (~73K ASes): generate
# the power-law topology, compile it, compute a 64-destination shard,
# run the E3-style hijack trials, and flap random links through delta
# recompilation. The topo subcommand emits the benchmark record itself;
# the description/date header and the gates are added here.
topo_bin=$(mktemp)
go build -o "$topo_bin" ./cmd/quicksand
topo_out=$(mktemp)
"$topo_bin" topo -json > "$topo_out"
rm -f "$topo_bin"

awk -v date="$(date +%Y-%m-%d)" '
NR == 1 && $0 == "{" {
    print "{"
    printf "  \"description\": \"Internet-scale topology benchmark: 73000-AS power-law graph generated, compiled, routed for a 64-destination shard, stressed with hijack trials and single-link churn through delta recompilation. Reproduce with: results/bench.sh or `quicksand topo -json`\",\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"required_delta_speedup\": 10.0,\n"
    printf "  \"budget_bytes_per_as_table\": 24,\n"
    next
}
{ print }
' "$topo_out" > results/BENCH_topo73k.json
rm -f "$topo_out"
cat results/BENCH_topo73k.json

awk -F'[:,]' '
/^  "routed_fraction"/    { rf = $2 }
/^  "bytes_per_as_table"/ { bp = $2 }
/^  "delta_speedup"/      { sp = $2 }
END {
    if (rf == "" || bp == "" || sp == "") { print "missing topo benchmark fields" > "/dev/stderr"; exit 1 }
    if (rf + 0 != 1)  { print "FAIL: routed fraction " rf " != 1 (unreachable ASes)" > "/dev/stderr"; exit 1 }
    if (bp + 0 > 24)  { print "FAIL: " bp " bytes/AS/table above the 24-byte budget" > "/dev/stderr"; exit 1 }
    if (sp + 0 < 10)  { print "FAIL: delta recompile speedup " sp "x below 10x" > "/dev/stderr"; exit 1 }
}' results/BENCH_topo73k.json

echo "== Counter-RAPTOR resilience: E10 + 73K estimator (-> results/BENCH_resilience.json) =="
# The resilience subcommand runs the whole extension: the all-pairs
# R(client, guard) matrix on the paper-scale world (sampled 200-attacker
# budget per guard), the head-to-head guard-selection study (vanilla
# bandwidth vs §5 short-path vs resilience-weighted at a = 0.5 and 1.0),
# and the sampled-estimator validation at the full 73K-AS scale (two
# independent attacker samples must agree within their combined 95%
# bounds). Gates: resilience weighting must strictly lower the analytic
# capture probability at every alpha (capture_margin > 0), and the
# 73K agreement fraction must be >= 0.9.
resil_bin=$(mktemp)
go build -o "$resil_bin" ./cmd/quicksand
resil_out=$(mktemp)
"$resil_bin" resilience -scale paper -attackers 200 -json > "$resil_out"
rm -f "$resil_bin"

awk -v date="$(date +%Y-%m-%d)" '
NR == 1 && $0 == "{" {
    print "{"
    printf "  \"description\": \"Counter-RAPTOR resilience extension (E10): all-pairs hijack-resilience matrix over every guard-hosting AS of the paper-scale world (sampled 200 attackers/guard), bandwidth- vs short-path- vs resilience-weighted guard selection head to head under explicit hijack trials, and the sampled estimator cross-validated at 73000 ASes with two independent attacker samples. Reproduce with: results/bench.sh or `quicksand resilience -scale paper -attackers 200 -json`\",\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"required_capture_margin\": 0.0,\n"
    printf "  \"required_big_agreement\": 0.9,\n"
    next
}
{ print }
' "$resil_out" > results/BENCH_resilience.json
rm -f "$resil_out"
cat results/BENCH_resilience.json

awk -F'[:,]' '
/^  "capture_margin"/   { cm = $2 }
/^  "tables_per_sec"/   { tp = $2 }
/^  "big_within_bound"/ { ag = $2 }
END {
    if (cm == "" || tp == "" || ag == "") { print "missing resilience benchmark fields" > "/dev/stderr"; exit 1 }
    if (cm + 0 <= 0)   { print "FAIL: capture margin " cm " not positive (resilience weighting did not beat vanilla)" > "/dev/stderr"; exit 1 }
    if (tp + 0 <= 0)   { print "FAIL: no table throughput recorded" > "/dev/stderr"; exit 1 }
    if (ag + 0 < 0.9)  { print "FAIL: 73K estimator agreement " ag " below 0.9" > "/dev/stderr"; exit 1 }
}' results/BENCH_resilience.json

echo "== fleet load harness: throughput + detection latency (-> results/BENCH_loadtest.json) =="
# The loadtest subcommand boots one fully instrumented monitord
# instance (stage/detection histograms live) and saturates it over 4
# concurrent loopback BGP sessions while a tracer session injects
# uniquely-identifiable hijacks of the watched prefix; a fleet client
# polls /alerts over HTTP and measures injection-to-alert latency. The
# subcommand emits the benchmark record itself; the description/date
# header and the gates are added here. Throughput is gated against the
# same 238707 updates/s pre-batching baseline as the monitord ingest
# bench (the instrumented pipeline sustains ~1M updates/s on the
# reference 1-CPU box), and the client-visible p99 must stay a finite
# <= 1s.
lt_bin=$(mktemp)
go build -o "$lt_bin" ./cmd/quicksand
lt_out=$(mktemp)
"$lt_bin" loadtest -instances 1 -sessions 4 -duration 3s -min-detected 1 -json > "$lt_out"
rm -f "$lt_bin"

awk -v date="$(date +%Y-%m-%d)" '
NR == 1 && $0 == "{" {
    print "{"
    printf "  \"description\": \"Fleet load harness: one instrumented monitord instance saturated by 4 concurrent loopback BGP collector sessions for 3s while tracer hijacks of the watched prefix measure end-to-end detection latency (TCP inject -> HTTP /alerts poll). Stage and detection histograms are live and aggregated via the obs scraper. Reproduce with: results/bench.sh or `quicksand loadtest -instances 1 -sessions 4 -duration 3s -json`\",\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"baseline_updates_per_sec\": 238707,\n"
    printf "  \"required_throughput_speedup\": 3.0,\n"
    printf "  \"required_p99_ceiling_seconds\": 1.0,\n"
    next
}
{ print }
' "$lt_out" > results/BENCH_loadtest.json
rm -f "$lt_out"
cat results/BENCH_loadtest.json

awk -F'[:,]' '
/^  "updates_per_sec"/               { ups = $2 }
/^  "inject_to_alert_p99_seconds"/   { p99 = $2 }
/^  "tracers_detected"/              { det = $2 }
END {
    if (ups == "" || p99 == "" || det == "") { print "missing loadtest benchmark fields" > "/dev/stderr"; exit 1 }
    speedup = ups / 238707
    if (speedup < 3.0) { print "FAIL: loadtest throughput " ups " updates/s only " speedup "x the 238707/s baseline (need 3x)" > "/dev/stderr"; exit 1 }
    if (det + 0 < 1)   { print "FAIL: no tracer hijack detected under load" > "/dev/stderr"; exit 1 }
    if (p99 + 0 <= 0 || p99 + 0 > 1.0) { print "FAIL: injection-to-alert p99 " p99 "s outside (0, 1.0]" > "/dev/stderr"; exit 1 }
}' results/BENCH_loadtest.json

echo "== fleet router: 4 shards behind one router (-> results/BENCH_fleet.json) =="
# The same harness pointed at a fleet router fronting 4 in-process
# monitord shards: one BGP listener, hash-sharded watchlist dispatch,
# merged /alerts, aggregated /metrics. One tracer prefix lands on each
# shard; the background load (198.18.0.0/15, unwatched) dies at the
# router's longest-prefix fast path instead of swamping a daemon
# pipeline. Gated against the single-daemon record of the previous
# step: aggregate ingest >= 2x, and the shards' dispatch-stage p99
# strictly below the saturated single daemon's.
base_ups=$(awk -F'[:,]' '/^  "updates_per_sec"/ { print $2 + 0 }' results/BENCH_loadtest.json)
base_dp99=$(awk -F'[:,]' '/^    "dispatch"/ { print $2 + 0 }' results/BENCH_loadtest.json)

flt_bin=$(mktemp)
go build -o "$flt_bin" ./cmd/quicksand
flt_out=$(mktemp)
"$flt_bin" loadtest -fleet 4 -sessions 4 -duration 3s -min-detected 1 -json > "$flt_out"
rm -f "$flt_bin"

awk -v date="$(date +%Y-%m-%d)" -v bu="$base_ups" -v bd="$base_dp99" '
NR == 1 && $0 == "{" {
    print "{"
    printf "  \"description\": \"Fleet router benchmark: the loadtest harness driving one fleet router that hash-shards the Tor-prefix watchlist across 4 in-process monitord instances — 4 concurrent loopback BGP sessions of unwatched background load plus one tracer session hijacking a watched prefix on every shard, alerts read from the merged /alerts stream and metrics from the aggregated /metrics endpoint. Gated against the single saturated daemon in BENCH_loadtest.json. Reproduce with: results/bench.sh or `quicksand loadtest -fleet 4 -sessions 4 -duration 3s -json`\",\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"single_daemon_updates_per_sec\": %s,\n", bu
    printf "  \"single_daemon_dispatch_p99_seconds\": %s,\n", bd
    printf "  \"required_ingest_speedup\": 2.0,\n"
    next
}
{ print }
' "$flt_out" > results/BENCH_fleet.json
rm -f "$flt_out"
cat results/BENCH_fleet.json

awk -v bu="$base_ups" -v bd="$base_dp99" -F'[:,]' '
/^  "updates_per_sec"/  { ups = $2 }
/^    "dispatch"/       { dp = $2 }
/^  "tracers_detected"/ { det = $2 }
/^  "fleet_shards"/     { shards = $2 }
END {
    if (ups == "" || dp == "" || det == "" || shards == "") { print "missing fleet benchmark fields" > "/dev/stderr"; exit 1 }
    if (shards + 0 != 4) { print "FAIL: fleet_shards " shards " != 4" > "/dev/stderr"; exit 1 }
    if (det + 0 < 1)     { print "FAIL: no tracer hijack detected through the fleet" > "/dev/stderr"; exit 1 }
    speedup = (ups + 0) / (bu + 0)
    if (speedup < 2.0)   { print "FAIL: fleet ingest " ups " updates/s only " speedup "x the single-daemon " bu "/s (need 2x)" > "/dev/stderr"; exit 1 }
    if (dp + 0 <= 0)     { print "FAIL: fleet dispatch p99 " dp " has no observations (tracers should flow through shards)" > "/dev/stderr"; exit 1 }
    if (dp + 0 >= bd + 0) { print "FAIL: fleet dispatch p99 " dp "s not below the saturated single-daemon " bd "s" > "/dev/stderr"; exit 1 }
}' results/BENCH_fleet.json

echo "OK"
