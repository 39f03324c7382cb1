#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, WAL temp dirs and span files all
# stay under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -d "$root/internal/fleet" ]]; then
	echo "perfbench: run from the repository root: go.mod and internal/ are missing in $root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
