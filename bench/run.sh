#!/usr/bin/env bash
# run.sh is the command BENCHMARK.json names: it builds the benchmark and
# the cubetreed daemon from the checkout it stands in, then runs the
# benchmark with the arguments it was given. Everything it writes — Go's
# build cache, the two binaries, the run's temp files — stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"

# Keep the Go toolchain inside the checkout too.
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp"

cd "$bench_dir"
go build -o "$build/bin/ctbench" .
go build -o "$build/bin/cubetreed" cubetree/cmd/cubetreed
exec "$build/bin/ctbench" -cubetreed "$build/bin/cubetreed" "$@"
