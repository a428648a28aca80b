#!/usr/bin/env bash
# Builds the benchmark from the current checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload flagship --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay under the build
# directory, $CARGO_TARGET_DIR (default .bench_build), and the build never
# uses the network. Outside a full checkout the build fails and so does
# this script.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/perfbench"
export GOCACHE=$out/go-cache GOTMPDIR=$out/go-tmp GOPATH=$out/go-path
export GOMODCACHE=$out/go-path/pkg/mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export PERFBENCH_OUT=$out/perfbench

go -C "$root/perfbench" build -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" "$@"
