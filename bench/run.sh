#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash bench/run.sh --workload mis-n65536 --seed 1 --seconds 25 --trace 0
#
# The Go build cache and temporary files live in .bench_build, so the
# build reads and writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off

(cd "$root/bench" && go build -o "$out/sleepmst-bench" .)
cd "$root"
exec "$out/sleepmst-bench" "$@"
