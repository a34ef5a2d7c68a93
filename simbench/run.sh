#!/usr/bin/env bash
# Builds the simbench benchmark from this checkout's sources and runs it.
#
#   bash simbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary and every Go cache the
# build touches live under .bench_build/ in the checkout; the toolchain
# is used offline, as installed.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$bench" build -o "$out/simbench" .
exec "$out/simbench" "$@"
