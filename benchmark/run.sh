#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, passing
# the arguments on. Everything it writes — Go's build cache included —
# stays under .bench_build/ in the checkout, so a run touches nothing
# outside it. BENCHMARK.json names this script as the command.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local
# The module needs nothing from the module cache; point it inside too.
export GOMODCACHE="$out/gomod"
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
