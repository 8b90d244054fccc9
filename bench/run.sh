#!/usr/bin/env bash
# Builds the benchmark and runs it; all arguments go to the benchmark.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload batch-cold --seed 1 --seconds 20 --trace 0
#
# Every file the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build cache,
# the binaries, the daemon's stores and logs, and the results.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export CARGO_TARGET_DIR="$build"

go -C "$root/bench" build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
