#!/usr/bin/env bash
# Builds the study-ledger benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark binary:
#
#   bash perfbench/run.sh --workload cold-study --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the artifact stores the studies
# write all live under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
