#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload (see
# benchmark/README.md). Run it from the root of the repository:
#
#   bash benchmark/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's own config and telemetry) stays under .bench_build/ in
# the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C benchmark build -o "$out/cisp-benchmark" .
exec "$out/cisp-benchmark" "$@"
