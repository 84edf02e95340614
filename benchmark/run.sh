#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ at the
# repository root (Go build cache included, so nothing is written
# outside the checkout) and runs it from the root with the given flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's own files (build cache, module cache, telemetry)
# inside the checkout too, and ignore any user-level go configuration.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/lunule-benchmark" . >&2
cd "$root"
exec "$build/lunule-benchmark" "$@"
