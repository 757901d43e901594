#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash bench/run.sh --workload run_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache and GOPATH, the binary,
# results, spans and profiles.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C bench build -o "$out/ifp-benchmark" .
exec "$out/ifp-benchmark" -dir "$out" "$@"
