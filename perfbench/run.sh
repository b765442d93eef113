#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#
#   bash perfbench/run.sh --workload tpch-power --seed 1 --seconds 24 --trace 0
#
# Everything it builds or writes stays under .bench_build at the root of
# the checkout: the Go build cache (and the toolchain's telemetry, kept
# there through XDG_CONFIG_HOME), the binary, spill files and the
# appended result trajectory.
#
# When the checkout is the top of a git work tree, the toolchain stamps
# the commit and whether the tree is modified into the binary, and the
# trajectory keys each result by them. Otherwise VCS stamping is off, so
# a git repository that merely encloses the checkout is never consulted.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
vcs=false
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$(pwd -P)" ]; then
	vcs=true
fi
go build -C perfbench -trimpath -buildvcs=$vcs -o "$out/perfbench" .
exec "$out/perfbench" "$@"
