#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source into
# .bench_build (inside the checkout, like everything else it writes) and run
# it with the arguments given. Run from the root of the repository.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# The go command keeps its caches, temporary files and settings in the
# checkout, and fetches nothing: the module needs only the standard library.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
