#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig8b_ccfit --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work-dir "$out" "$@"
