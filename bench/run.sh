#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given flags, from the root of the checkout.  Everything the build
# writes (Go's build cache and the toolchain's telemetry counters
# included) stays under .bench_build/, so a run reads and writes only
# inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
(cd bench && go build -o "$build/rdabench" .)
exec "$build/rdabench" "$@"
