#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid-paper --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and any trace or journal files stay under
# .bench_build/, so nothing outside the checkout is written. The build needs
# no network: the benchmark module depends only on the repository's own
# module, by a relative replace.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
