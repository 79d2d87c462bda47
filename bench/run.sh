#!/usr/bin/env bash
# The benchmark's entry point for the driver (BENCHMARK.json "command"):
# build ./bench from source and run it, keeping everything the go tool and
# the benchmark write inside the checkout (build cache and binary under
# .bench_build/, traces and scratch corpora under bench/out/). Run from the
# repository root; arguments go to the benchmark unchanged.
#
# By hand, `go run ./bench ...` does the same with the user's own caches.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go build -o "$build/b3bench" ./bench
TMPDIR="$build/tmp" exec "$build/b3bench" "$@"
