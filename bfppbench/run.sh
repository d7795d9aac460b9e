#!/usr/bin/env bash
# Builds bfpp-serve and the benchmark from the tree, then runs one
# benchmark workload. Run from the repository root:
#
#   bash bfppbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# Builds, the Go build cache, temporary files, server stores and traces all
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# so a run writes nothing outside the checkout. A failed build exits
# non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache TMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bfpp-serve" ./cmd/bfpp-serve >&2
(cd bfppbench && go build -o "$out/bfppbench" .) >&2
exec "$out/bfppbench" -serve "$out/bfpp-serve" -work "$out" "$@"
