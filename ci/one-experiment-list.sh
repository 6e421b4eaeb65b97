#!/usr/bin/env bash
# The paper's figures and ablations are rows of one experiment list
# (latency_bench::EXPERIMENTS): each row declares the runs it reads, a plan
# executes each distinct run once, and every row renders from the records.
# Fail if a subcommand module under crates/bench/src/cmd/ runs a simulation
# of its own again — a printer that calls the drivers directly is a second
# run of a run the list already makes — or if a deleted per-experiment
# driver or result type comes back under crates/ or tests/.
#
# Usage: ci/one-experiment-list.sh   (from the repository root)
set -euo pipefail

hits=0
report() {
  if [ -n "$1" ]; then
    echo "$1"
    hits=$((hits + $(wc -l <<<"$1")))
  fi
}

report "$(grep -rnE '\b(run_bfs_traced|run_workload_traced|measure_chase_under_load)\(' crates/bench/src/cmd || true)"
report "$(grep -rnwE 'dram_sched_comparison|DramSchedResult|HidingPoint|LoadedChase' crates tests || true)"

if [ "$hits" -ne 0 ]; then
  echo "one-experiment-list: $hits stray driver(s); add a row to latency_bench::EXPERIMENTS instead" >&2
  exit 1
fi
echo "one-experiment-list: OK (one experiment list, each distinct run once)"
