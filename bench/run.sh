#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. The Go build and module caches are kept under
# .bench_build/ so nothing is read or written outside the checkout; after
# the first build, go build finds the binary up to date in a few tenths of
# a second.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/cereszbench" .
cd "$root"
exec "$build/cereszbench" "$@"
