#!/bin/sh
# Tier-1 verification plus the parallel-engine checks:
#
#   1. go build ./...                 (tier-1)
#   2. go test ./...                  (tier-1)
#   3. go vet ./...
#   4. go test -race over the worker pool and every parallel study path
#   5. observability overhead smoke: one iteration of each instrumented-
#      vs-plain benchmark pair; the full numbers are the hand-recorded
#      baselines in results/BENCH_obs.json
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
#
# Load and detection latency on the live service are not measured here,
# nor is route-kernel speed: that is `bash bench/run.sh` over the
# workloads of BENCHMARK.json (serve-*/fleet-*, and routes-73k/study for
# the kernel). The kernel's allocation figure is pinned by
# TestComputeRoutesIntoZeroAlloc.
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

echo "OK"
