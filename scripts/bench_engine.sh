#!/bin/sh
# bench_engine.sh — run the emulator benchmarks (bare engine and cold
# trace generation, refs/s and MLIPS on deriv+qsort at 1/4/8 PEs, plus
# the steady-state reference-path allocation check) and record the
# result as BENCH_engine.json, so the emulator's performance trajectory
# is captured per PR next to the cache-replay numbers.
#
# Usage: scripts/bench_engine.sh [output.json]
#   BENCH_COUNT=N   repetitions per benchmark (default 1)
#   BENCH_FILTER=RE benchmarks to run (default the engine suite)
set -eu

out="${1:-BENCH_engine.json}"
count="${BENCH_COUNT:-1}"
filter="${BENCH_FILTER:-BenchmarkEngineRun|BenchmarkTraceGeneration}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

{
    go test -run '^$' -bench "$filter" -benchmem -count "$count" ./internal/bench
    go test -run '^$' -bench 'BenchmarkMemoryRefPath' -benchmem -count "$count" ./internal/mem
} > "$tmp" || {
    status=$?
    cat "$tmp"
    echo "bench_engine.sh: go test -bench failed" >&2
    exit "$status"
}
cat "$tmp"

awk -v goversion="$(go version | awk '{print $3}')" '
BEGIN { printf "[" }
$1 ~ /^Benchmark/ {
    if (n++) printf ","
    printf "\n  {\"name\":\"%s\",\"iterations\":%s", $1, $2
    # remaining fields come in value/unit pairs (ns/op, refs/s, MLIPS, B/op, allocs/op, ...)
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9]+/, "_", unit)
        printf ",\"%s\":%s", unit, $i
    }
    printf ",\"go\":\"%s\"}", goversion
}
END { printf "\n]\n" }
' "$tmp" > "$out"

echo "wrote $out:"
cat "$out"
