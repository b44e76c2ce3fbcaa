#!/usr/bin/env bash
# Builds analysisd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set), including the Go build cache.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOENV=off GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/bin/analysisd" ./cmd/analysisd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -server "$out/bin/analysisd" -spans "$out/spans" "$@"
