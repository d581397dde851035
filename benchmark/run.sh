#!/usr/bin/env bash
# Builds the ledger from source and runs it. This is the command
# BENCHMARK.json names: everything the build and the run write - binary,
# Go build cache, temp files, generated data - lands under .bench_build
# in the checkout, and `go build` is incremental, so only the first run
# in a checkout pays for compiling.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/ledger" ./benchmark
exec "$build/ledger" "$@"
