#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload corpus-mix --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) and every
# temporary file of the build and of the run stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" --scratch "$build" "$@"
