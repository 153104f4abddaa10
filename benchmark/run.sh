#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the arguments given.
#
# Everything the Go toolchain writes (build cache, config, telemetry)
# is redirected under .bench_build/, so a run reads and writes only
# inside the checkout. The first build in a fresh checkout compiles the
# standard library too; later ones are cache hits.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home"

HOME="$build/home" \
XDG_CONFIG_HOME="$build/home/.config" \
XDG_CACHE_HOME="$build/home/.cache" \
GOCACHE="$build/gocache" \
GOPATH="$build/gopath" \
GOENV=off \
GOTOOLCHAIN=local \
GOFLAGS=-buildvcs=false \
	go build -o "$build/benchmark" ./benchmark

exec "$build/benchmark" "$@"
