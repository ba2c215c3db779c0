#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage, from the root of a checkout:
#   bash perfbench/run.sh --workload sim-steady --seed 1 --seconds 10 --trace 0
# Every build artefact, cache and temporary file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
