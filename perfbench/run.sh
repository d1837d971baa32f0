#!/usr/bin/env bash
# Builds lcmd, lcmgate and the benchmark from this checkout into
# .bench_build/bin, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/lcmd ] || [ ! -d cmd/lcmgate ]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/lcmd or cmd/lcmgate here)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/lcmd" ./cmd/lcmd
go build -o "$out/bin/lcmgate" ./cmd/lcmgate
go -C perfbench build -o "$out/bin/perfbench" .

exec "$out/bin/perfbench" "$@"
