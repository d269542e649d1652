#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it, from the root of a checkout. Everything the toolchain and the
# benchmark write (build and module caches, the toolchain's own counters,
# binaries, temp dirs) stays under .bench_build/ in that checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C bench -o "$out/nucbench" .
exec "$out/nucbench" "$@"
