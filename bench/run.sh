#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the caller's flags. Everything the go
# command writes (build cache, module cache, temporary files, its own
# settings and counters) is kept under .bench_build/ at the root of the
# checkout, so nothing is read or written outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/thetis-bench" .)
exec "$build/thetis-bench" -spec "$root/BENCHMARK.json" "$@"
