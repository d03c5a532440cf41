#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite256 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go caches, temporary files, the
# toolchain's telemetry counters) goes under .bench_build/ in the current
# directory. The benchmark is its own module that imports the simulator
# through a replace of the parent directory, so without the repository
# around it the build fails and the script exits nonzero without printing
# a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
