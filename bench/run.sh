#!/usr/bin/env bash
# BENCHMARK.json's command: build the bench from source and run it, from
# the root of a checkout, writing nothing outside it. Everything the Go
# toolchain writes — build cache, temporary files, module cache, its own
# counters — goes to .bench_build/ (git-ignored), so the first run in a
# fresh checkout also compiles the standard library.
# By hand, `go run -C bench . <flags>` does the same with the user's own
# build cache.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
