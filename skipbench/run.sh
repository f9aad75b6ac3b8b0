#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash skipbench/run.sh --workload web-sync --seed 1 --seconds 10 --trace 0
#   bash skipbench/run.sh steady --workload zipf-batch --runs 10 --seconds 10
#
# The build cache, the binary, the write-ahead logs and the spans all go
# under .bench_build (or $CARGO_TARGET_DIR when set) in the repository,
# and nothing is fetched: the benchmark module depends only on the
# repository's own module, through a replace directive.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
(cd "$root/skipbench" && go build -o "$build/skipbench" .)
cd "$root"
exec "$build/skipbench" "$@"
