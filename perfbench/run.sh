#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of an ndpbridge checkout; arguments go to the benchmark unchanged:
#
#   bash perfbench/run.sh --workload pr-512-O --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d internal/core || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an ndpbridge checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off CGO_ENABLED=0
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
