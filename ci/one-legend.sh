#!/usr/bin/env bash
# The Figure-1 stage cut is written down once, beside `Stamp` in
# crates/mem/src/request.rs (the legend `Stamp::stage_label`, the walk
# `Timeline::stages`); the breakdown and the request spans read it. A second
# copy of the legend is a second place a new stamp has to be added, so fail
# unless the quoted literal "DRAM(QtoSch)" — a label nothing else spells —
# occurs in exactly that one file under crates/*/src.
#
# The cycle loop is plain code in Gpu::tick_cycle: the stage list that was
# data (TickSchedule) and the trait that only forwarded (ClockedComponent)
# are gone, and neither name may come back under crates/*/src.
#
# A request's hops are recorded once, as stamps on its Timeline: the
# crossbar and queue hop events (EventKind::Icnt*, EventKind::Queue*, with
# their NetDir and QueueKind payloads) and the DRAM log's per-request
# schedule entry (DramEventKind::Schedule) are gone, and none may come back
# under crates/*/src.
#
# Usage: ci/one-legend.sh   (from the repository root)
set -euo pipefail

hits=0

legend=$(grep -rlF '"DRAM(QtoSch)"' crates/*/src | sort)
if [ "$legend" != crates/mem/src/request.rs ]; then
  echo "the Figure-1 legend is spelled in: ${legend:-no file} (want only crates/mem/src/request.rs)"
  hits=$((hits + 1))
fi

layers=$(grep -rnE 'TickSchedule|ClockedComponent' crates/*/src || true)
if [ -n "$layers" ]; then
  echo "$layers"
  hits=$((hits + $(wc -l <<<"$layers")))
fi

hops=$(grep -rnE 'QueueKind|NetDir|EventKind::(Queue|Icnt)|DramEventKind::Schedule' crates/*/src || true)
if [ -n "$hops" ]; then
  echo "$hops"
  hits=$((hits + $(wc -l <<<"$hops")))
fi

if [ "$hits" -ne 0 ]; then
  echo "one-legend: $hits stray copy(ies); read Stamp::stage_label / write the stage in Gpu::tick_cycle / stamp the hop on the Timeline" >&2
  exit 1
fi
echo "one-legend: OK (one stage table, one cycle loop, one record per hop)"
