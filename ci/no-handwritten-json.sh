#!/usr/bin/env bash
# JSON leaves this workspace through one writer (gpu_types::json::Writer),
# never through a format string. A hand-formatted key shows up in Rust
# source as an escaped-quote literal such as \"cycle\": — so scan the
# non-test part of every source file (the lines before its first
# #[cfg(test)]) for that shape and fail on any hit. The json module itself
# is exempt: it is the one place that spells JSON syntax.
#
# Usage: ci/no-handwritten-json.sh   (from the repository root)
set -euo pipefail

hits=0
while IFS= read -r file; do
  [ "$file" = crates/types/src/json.rs ] && continue
  found=$(awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file" |
    grep -E '\\"[A-Za-z_$]+\\":' || true)
  if [ -n "$found" ]; then
    echo "$found"
    hits=$((hits + $(wc -l <<<"$found")))
  fi
done < <(find crates/*/src -name '*.rs' | sort)

if [ "$hits" -ne 0 ]; then
  echo "no-handwritten-json: $hits hand-formatted JSON key(s); write them through gpu_types::json::Writer" >&2
  exit 1
fi
echo "no-handwritten-json: OK (every emitter goes through the writer)"
