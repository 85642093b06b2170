#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# argument passes through, e.g.
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
# The build cache, temporary files and the binary stay in .bench_build at
# the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
