#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the Go toolchain writes (build
# cache included) stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOWORK=off
export TMPDIR="$build/tmp"

(cd "$here" && go build -o "$build/repro-benchmark" .)
cd "$root"
exec "$build/repro-benchmark" "$@"
