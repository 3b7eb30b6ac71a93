#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 18 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
