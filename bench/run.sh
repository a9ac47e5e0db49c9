#!/bin/sh
# Builds the benchmark and then becomes it (exec): there is no child
# process to leave behind, and the servers it measures are goroutines of
# that one process. Everything the build writes stays inside the
# benchmark's own directory, under bench/.build/.
#
#   sh bench/run.sh                                   all four workloads
#   sh bench/run.sh --workload cohort-fresh --seed 2  one workload, another seed
#   sh bench/run.sh --workload topk-ingest --trace 1  the per-layer table
set -eu
cd "$(dirname "$0")/.."
build="$PWD/bench/.build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOTOOLCHAIN=local go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
