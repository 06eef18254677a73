#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root. Every file the Go toolchain or the benchmark writes
# (build cache, temp files, shm rings, traces) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export TMPDIR="$build/tmp"
(
  cd "$here"
  GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" GOENV=off \
  GOPROXY=off GOTOOLCHAIN=local \
    go build -o "$build/lapse-bench" .
)
exec "$build/lapse-bench" -out "$here/out" -tmp "$build/tmp" "$@"
