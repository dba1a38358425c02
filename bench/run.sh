#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root:
#
#   bash bench/run.sh --workload coll-p4 --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh                      # every workload, one child process each
#   bash bench/run.sh -trace               # the traced per-layer set
#   bash bench/run.sh -compare A.json B.json
#
# Build outputs, the Go build cache and the harness's scratch files all go
# under $CARGO_TARGET_DIR (default .bench_build), so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -work "$build/work" "$@"
