#!/usr/bin/env bash
# The paper's figures and ablations are rows of one experiment list
# (latency_bench::EXPERIMENTS): each row declares the runs it reads, a plan
# executes each distinct run once, and every row renders from the records.
# Fail if a subcommand module under crates/bench/src/cmd/ runs a simulation
# of its own again — a printer that calls the drivers directly is a second
# run of a run the list already makes — or if a deleted per-experiment
# driver or result type comes back under crates/ or tests/. The list is
# also the one place simulation pins live: the workloads and tick bench
# suites (E4 twice, one loaded BFS for idle coverage) were folded into it,
# so their drivers and pin files must not come back either. The static
# analyzer's contracts are checked on the list's own traced runs as they
# are reduced (the static_vs_dynamic row prints them), so the private
# driver that made runs of its own for them (validate_run and the
# run_workload_traced it called) and `lint --validate` must not come back.
# Every traced run pins its stall and counter totals, so the per-preset
# metrics.txt hash goldens and their script must not come back either.
# §II's stride x footprint grid and its inference are the sweep row's runs,
# pinned with the rest, so the `latency sweep` tool's private driver, the
# sweep bench suite and its pin file must not come back.
# The serve daemon's cold and warm race is a gpu-serve test that asserts
# its counters exactly, so `latency bench` runs the list alone: the serve
# bench suite, its pin file and the `--suites` flag must not come back.
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

report "$(grep -rnE '\b(run_bfs_traced|measure_chase_under_load)\(' crates/bench/src/cmd || true)"
report "$(grep -rnwE 'dram_sched_comparison|DramSchedResult|HidingPoint|LoadedChase' crates tests || true)"
report "$(grep -rnwE 'run_tick_bench|run_workload_bench|TickBench|WorkloadBench|workloads_json' crates tests || true)"
report "$(grep -rnwE 'validate_run|run_workload_traced' crates tests || true)"
report "$(grep -nF '"--validate"' crates/bench/src/cmd/lint.rs || true)"
report "$(git ls-files BENCH_tick.json BENCH_workloads.json)"
report "$(git ls-files ci/check-preset.sh ci/metrics-goldens.txt)"
report "$(grep -rnwE 'run_sweep_bench|SweepBench|cold_grid_cycles' crates tests || true)"
report "$(git ls-files BENCH_sweep.json crates/bench/src/cmd/sweep.rs)"
report "$(git ls-files BENCH_serve.json crates/bench/src/suite.rs)"
report "$(grep -rnwE 'run_serve_bench|ServeBench|ServePass|SuiteResult' crates/bench/src || true)"
report "$(grep -nF '"--suites"' crates/bench/src/cmd/bench.rs || true)"

if [ "$hits" -ne 0 ]; then
  echo "one-experiment-list: $hits stray driver(s); add a row to latency_bench::EXPERIMENTS instead" >&2
  exit 1
fi
echo "one-experiment-list: OK (one experiment list, each distinct run once)"
