#!/usr/bin/env bash
# Each memory-side decision is made in one function, called both by the
# code that acts on it and by the pure question that plans around it: an L2
# slice's head is routed by Partition::l2_route (next_event asks whether
# the route waits, tick_l2_slice matches on it), a tag array decides whether
# a set can take a line by Cache::has_way (built on the owner and victim
# helpers its mutators use), and a waiter on a full network port, request
# or reply, is filed and woken by agenda::Waiters. Fail if a deleted second
# copy — the planner's restated decision tree, the pure twins of reserve
# and allocate_dirty, or the reply ports' mirrored registry — comes back
# under crates/ or tests/.
#
# Usage: ci/one-decision.sh   (from the repository root)
set -euo pipefail

copies=$(grep -rnwE 'head_acts|can_reserve|can_allocate_dirty|wait_on_reply|waits_on_reply' crates tests || true)
if [ -n "$copies" ]; then
  echo "$copies"
  echo "one-decision: $(wc -l <<<"$copies") stray copy(ies); route with Partition::l2_route / ask Cache::has_way / register with agenda::Waiters" >&2
  exit 1
fi
echo "one-decision: OK (one route, one way rule, one waiter registry)"
