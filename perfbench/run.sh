#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload road-query --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every file the build and the run write
# (Go build cache, binary, snapshots, traces) goes under the build
# directory, $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
