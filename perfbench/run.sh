#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout; the module proxy is off, so the build
# never reaches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTELEMETRYDIR="$out/telemetry" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
