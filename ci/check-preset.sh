#!/usr/bin/env bash
# Run one architecture preset end to end and pin its timing:
#   1. table1   --preset <p> — the paper's Table I row (asserts internally
#      that measured latencies match the analytic unloaded model).
#   2. validate --preset <p> — the published-reference harness: analytic
#      unloaded latencies and chase plateaus diffed against the committed
#      REFERENCE_latencies.json, within its tolerance.
#   3. trace    --preset <p> — a small deterministic BFS with --validate
#      (span tiling + sanitizer), producing a metrics.txt, which is a
#      pure function of the simulation (host time is on stdout only).
#   4. Hash the whole metrics.txt and diff against the committed golden in
#      ci/metrics-goldens.txt.
#
# Usage: ci/check-preset.sh <preset> [--update]
#   (expects target/release/latency built: cargo build --release --offline)
#   --update rewrites (or appends, for a new preset) the golden line
#   instead of checking it.
set -euo pipefail

preset="${1:?usage: ci/check-preset.sh <preset> [--update]}"
mode="${2:-}"
goldens="$(dirname "$0")/metrics-goldens.txt"
out="target/ci-bundle-$preset"

latency=target/release/latency
"$latency" table1 --preset "$preset"
"$latency" validate --preset "$preset"
"$latency" trace \
  --preset "$preset" --workload bfs --nodes 512 --degree 4 --block-dim 64 \
  --out "$out" --validate

actual=$(sha256sum "$out/metrics.txt" | awk '{print $1}')

if [ "$mode" = "--update" ]; then
  if grep -q "^$preset " "$goldens"; then
    sed -i "s/^$preset .*/$preset $actual/" "$goldens"
  else
    echo "$preset $actual" >> "$goldens"
  fi
  echo "updated golden: $preset $actual"
  exit 0
fi

expected=$(awk -v p="$preset" '$1 == p {print $2}' "$goldens")
if [ -z "$expected" ]; then
  echo "error: no golden recorded for preset '$preset' in $goldens" >&2
  exit 1
fi
if [ "$actual" != "$expected" ]; then
  echo "metrics drift for preset '$preset':" >&2
  echo "  expected $expected" >&2
  echo "  actual   $actual" >&2
  echo "metrics.txt:" >&2
  cat "$out/metrics.txt" >&2
  exit 1
fi
echo "$preset: metrics match committed golden ($actual)"
