#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload incache-p2 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the trace files go to .bench_build/ under
# the current directory, and the toolchain is kept off the network and out of
# the user's home directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
