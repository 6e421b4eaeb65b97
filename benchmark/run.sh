#!/usr/bin/env bash
# Builds the benchmark package and runs it with the given arguments:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one pass
#   benchmark/run.sh all --seed N --out DIR [--runs K] [--quick]      every workload, both passes
#   benchmark/run.sh compare DIR_A DIR_B                              A/B verdict
#
# Everything it writes stays under the checkout: the build in
# $CARGO_TARGET_DIR (default .bench_build), results and traces in .bench_out.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
t0=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
t1=$(date +%s%N)
BENCH_BUILD_NS=$((t1 - t0)) exec "$CARGO_TARGET_DIR/release/gpu-latency-benchmark" "$@"
