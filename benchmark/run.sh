#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout it is
# run from and runs it there with the arguments given. Everything the build
# and the run write stays under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
