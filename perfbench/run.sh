#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-study --seed 11 --seconds 45 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
