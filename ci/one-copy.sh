#!/usr/bin/env bash
# A memory request is stored once: each Gpu keeps its records in one
# RequestTable, and every queue, pipe, network port and MSHR merge list in
# the simulator carries a 4-byte ReqHandle into it (DESIGN.md, "A request
# is stored once"). Fail if a structure that carries the record itself —
# DelayQueue<MemRequest>, BoundedQueue<MemRequest>, Crossbar<MemRequest>,
# MshrTable<MemRequest>, VecDeque<MemRequest> or Vec<MemRequest> — comes
# back under crates/sim/src.
#
# Usage: ci/one-copy.sh   (from the repository root)
set -euo pipefail

copies=$(grep -rnE '\b(DelayQueue|BoundedQueue|Crossbar|MshrTable|VecDeque|Vec)<\s*(gpu_mem::)?MemRequest\s*>' crates/sim/src || true)
if [ -n "$copies" ]; then
  echo "$copies"
  echo "one-copy: $(wc -l <<<"$copies") structure(s) carry MemRequest by value; store it in the RequestTable and carry a ReqHandle" >&2
  exit 1
fi
echo "one-copy: OK (every request stored once, in the request table)"
