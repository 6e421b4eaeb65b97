#!/usr/bin/env bash
# Table I is written down once and measured and checked by one path each:
# the published latencies live only in REFERENCE_latencies.json (read through
# latency_core::reference_rows / ArchPreset::published), a preset's chase
# points are derived only by row_points and measured as runs of the
# experiment list (the `table1` and `validate` rows share them), and
# analytic, measured and published values are compared only by
# latency-bench's published-reference rules (whose floor rule is contract
# C). Fail if a deleted second copy — the hand-written expected table, a
# serial twin of a pooled measurement, the separate floor harness, the
# batch measurer and validation suite the experiment list replaced, or its
# pin file — comes back under crates/ or tests/, or if the Table I golden
# test spells out a measured row instead of reading the published one.
#
# Usage: ci/one-reference.sh   (from the repository root)
set -euo pipefail

hits=0

copies=$(grep -rnwE 'table1_expected|Table1Row|measure_row_serial|measure_serial|run_serial|validate_floor|FloorReport' crates tests || true)
if [ -n "$copies" ]; then
  echo "$copies"
  hits=$((hits + $(wc -l <<<"$copies")))
fi

suite=$(grep -rnE 'Table1::measure_presets|\brun_validation_bench\b|\bValidationBench\b' crates tests || true)
if [ -n "$suite" ]; then
  echo "$suite"
  hits=$((hits + $(wc -l <<<"$suite")))
fi

pins=$(git ls-files BENCH_validation.json)
if [ -n "$pins" ]; then
  echo "$pins: Table I's pins live in BENCH_experiments.json"
  hits=$((hits + 1))
fi

literal=$(grep -nF 'MeasuredRow {' tests/table1_golden.rs || true)
if [ -n "$literal" ]; then
  echo "$literal" | sed 's#^#tests/table1_golden.rs:#'
  hits=$((hits + $(wc -l <<<"$literal")))
fi

if [ "$hits" -ne 0 ]; then
  echo "one-reference: $hits stray copy(ies); read ArchPreset::published / plan the table1 or validate row / check with latency_bench::reference" >&2
  exit 1
fi
echo "one-reference: OK (one published table, one measurement, one check)"
