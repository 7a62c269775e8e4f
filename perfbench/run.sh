#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root with the given arguments, e.g.
#   bash perfbench/run.sh --workload repro-cold --seed 1 --seconds 30 --trace 0
# Build outputs and the Go build cache live in .bench_build/ of the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
