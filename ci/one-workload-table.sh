#!/usr/bin/env bash
# Workloads are described once, in gpu_workloads::table, and run through
# one path, Workload::execute (instrumented: latency_bench::run_traced).
# A driver that sets a workload up by hand, or assembles its own TracedRun,
# is a fork of that path — so scan the non-test part of every source file
# outside crates/workloads (the lines before its first #[cfg(test)]) and
# fail on:
#   - a call to one of the workload crate's kernel builders or to a
#     workload module's setup()/upload_graph*() (names read off the crate);
#   - a `TracedRun {` construction anywhere but the one in
#     crates/bench/src/experiments.rs.
#
# Usage: ci/one-workload-table.sh   (from the repository root)
set -euo pipefail

src=crates/workloads/src
builders=$(grep -ohE 'pub fn build_[a-z0-9_]+_kernel[0-9]*' $src/*.rs | awk '{print $3}' | sort -u | paste -sd'|')
modules=$(ls $src | sed 's/\.rs$//' | grep -vE '^(lib|table|graph)$' | paste -sd'|')
calls="\\b($builders)\\(|\\b($modules)::(setup|upload_graph[a-z_]*)\\("

# A construction, not the type's definition or a `-> TracedRun {` signature.
built() { grep -E 'TracedRun \{' | grep -vE '(struct|impl|->) TracedRun' || true; }

non_test() { awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$1"; }

hits=0
report() {
  if [ -n "$1" ]; then
    echo "$1"
    hits=$((hits + $(wc -l <<<"$1")))
  fi
}
while IFS= read -r file; do
  report "$(non_test "$file" | grep -E "$calls" || true)"
  [ "$file" = crates/bench/src/experiments.rs ] && continue
  report "$(non_test "$file" | built)"
done < <(find crates/*/src -name '*.rs' -not -path "$src/*" | sort)

count=$(non_test crates/bench/src/experiments.rs | built | wc -l)
if [ "$count" -ne 1 ]; then
  echo "crates/bench/src/experiments.rs builds a TracedRun in $count places (want exactly 1)"
  hits=$((hits + 1))
fi

if [ "$hits" -ne 0 ]; then
  echo "one-workload-table: $hits fork(s) of the run path; go through gpu_workloads::Workload" >&2
  exit 1
fi
echo "one-workload-table: OK (one table, one run path)"
