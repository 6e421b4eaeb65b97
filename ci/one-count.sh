#!/usr/bin/env bash
# What is in flight is counted once: the request table holds every request
# (its records plus those lent to the DRAM channels) and each crossbar its
# own packets (injected minus ejected), and the per-cycle audit compares
# the pipeline's census with the table alone (DESIGN.md, "Counters instead
# of recounts"). Fail if a second count comes back under crates/sim/src:
# the GPU's `outstanding:` counter, the agenda's `net_in_flight` or
# `sm_occupied`, the partition's `stores_retired_here`, or the sanitizer's
# `TableCount`.
#
# Usage: ci/one-count.sh   (from the repository root)
set -euo pipefail

copies=$(grep -rnE '\boutstanding:|\b(net_in_flight|sm_occupied|stores_retired_here|TableCount)\b' crates/sim/src || true)
if [ -n "$copies" ]; then
  echo "$copies"
  echo "one-count: $(wc -l <<<"$copies") line(s) keep a second count of what is in flight; read the request table or the crossbars" >&2
  exit 1
fi
echo "one-count: OK (the request table and the crossbars are the only in-flight counts)"
