#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash layerbench/run.sh --workload mis-core --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build uses the repository's default.pgo,
# as the shipped commands do, and keeps its cache under .bench_build.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
# Everything the build needs is in the checkout: never reach for a proxy.
export GOCACHE=$build/gocache GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
pgo=off
if [ -f "$root/default.pgo" ]; then
	pgo=$root/default.pgo
fi
go -C "$root/layerbench" build -pgo="$pgo" -o "$build/layerbench" .
exec "$build/layerbench" "$@"
