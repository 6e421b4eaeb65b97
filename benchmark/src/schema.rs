//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same lists for the driver; a unit test keeps
//! the two identical in both directions, and [`MetricSet`] refuses any name
//! the tables do not declare, so the binary cannot emit a metric the
//! contract does not know or drop one it does.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "chase-sweep",
        "One warp on one SM: nearly every simulated cycle is quiescent, so host time is Gpu::tick over idle components plus per-point Gpu::new; idle-cycle skipping must move it.",
    ),
    (
        "bfs-dynamic",
        "Loaded, memory-divergent 15-SM gf100 under sanitizer and latency sink: tick_sms dominates; per-cycle heap traffic and scheduler work show, idle skipping should not.",
    ),
    (
        "kernels-modern",
        "Compute-, shared-memory- and barrier-heavy kernels on 80-SM sectored, sliced gv100: code paths gf100 never runs, so a gain bought on bfs-dynamic at their cost shows.",
    ),
    (
        "serve-warm",
        "Closed-loop clients against a cache-warm daemon: proto, spec, server, chase cache, store and sockets do all the work, so simulator-core changes must leave it flat.",
    ),
];

/// Metrics a user of the system sees, each measured with tracing off and
/// reported by every workload.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("sim_cycles_per_s", "1/s", Better::Higher, 0.25),
    e2e("sim_instr_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// Metrics of single layers (crates), measured in the traced pass. A
/// metric reads 0 on a workload that never enters the layer's code.
pub const PER_LAYER: [Metric; 90] = [
    // sim: self-profiler stage deltas and RunSummary counts, per round.
    lower("sim.run_s", "s"),
    lower("sim.tick_sms_s", "s"),
    lower("sim.tick_partitions_s", "s"),
    lower("sim.begin_networks_s", "s"),
    lower("sim.inject_replies_s", "s"),
    lower("sim.eject_requests_s", "s"),
    lower("sim.dispatch_ctas_s", "s"),
    lower("sim.audit_invariants_s", "s"),
    lower("sim.sample_counters_s", "s"),
    lower("sim.advance_clock_s", "s"),
    lower("sim.drain_check_s", "s"),
    lower("sim.host_ns_per_cycle", "ns"),
    lower("sim.host_ns_per_instr", "ns"),
    lower("sim.gpu_new_ms", "ms"),
    lower("sim.launch_us", "us"),
    lower("sim.allocs_per_cycle", "1/cycle"),
    lower("sim.alloc_bytes_per_cycle", "B/cycle"),
    higher("sim.issue_slot_util", "share"),
    lower("sim.sanitizer_overhead_share", "share"),
    higher("sim.tick_par2_speedup", "ratio"),
    lower("sim.cycles", "count"),
    lower("sim.instructions", "count"),
    higher("sim.l1_hits", "count"),
    lower("sim.l1_misses", "count"),
    higher("sim.l2_hits", "count"),
    lower("sim.l2_misses", "count"),
    lower("sim.dram_serviced", "count"),
    higher("sim.dram_row_hits", "count"),
    lower("sim.stall_cycles", "count"),
    lower("sim.sanitizer_violations", "count"),
    // isa
    higher("isa.exec_instr_per_s", "1/s"),
    lower("isa.build_kernels_us", "us"),
    lower("isa.asm_roundtrip_us", "us"),
    // mem
    higher("mem.cache_ops_per_s", "1/s"),
    higher("mem.cache_sectored_ops_per_s", "1/s"),
    higher("mem.mshr_ops_per_s", "1/s"),
    higher("mem.dram_req_per_s", "1/s"),
    higher("mem.device_rw_mb_per_s", "MB/s"),
    // icnt
    higher("icnt.flits_per_s", "1/s"),
    // arch
    lower("arch.validate_us", "us"),
    lower("arch.encode_decode_us", "us"),
    lower("arch.hash_desc_us", "us"),
    lower("arch.lower_us", "us"),
    // snapshot
    higher("snapshot.encode_mb_per_s", "MB/s"),
    higher("snapshot.decode_mb_per_s", "MB/s"),
    lower("snapshot.gpu_bytes", "B"),
    lower("snapshot.write_atomic_us", "us"),
    lower("snapshot.checkpoint_overhead_share", "share"),
    // trace
    lower("trace.profile_overhead_share", "share"),
    lower("trace.event_overhead_share", "share"),
    lower("trace.events_per_cycle", "1/cycle"),
    higher("trace.json_parse_mb_per_s", "MB/s"),
    higher("trace.chrome_export_mb_per_s", "MB/s"),
    // workloads
    lower("workloads.graph_build_s", "s"),
    lower("workloads.upload_s", "s"),
    lower("workloads.verify_s", "s"),
    // core
    lower("core.chase_point_ms_p50", "ms"),
    lower("core.chase_build_us", "us"),
    lower("core.plateau_us", "us"),
    lower("core.inference_ms", "ms"),
    lower("core.breakdown_ms", "ms"),
    lower("core.exposure_ms", "ms"),
    lower("core.cache_lookup_us", "us"),
    lower("core.cache_store_us", "us"),
    higher("core.cache_hit_rate", "share"),
    lower("core.warm_sweep_ms", "ms"),
    higher("core.par_map_efficiency", "share"),
    // check
    lower("check.analyze_ms", "ms"),
    lower("check.cost_ms", "ms"),
    // serve
    lower("serve.boot_ms", "ms"),
    lower("serve.recover_ms", "ms"),
    lower("serve.connect_ms_p50", "ms"),
    lower("serve.accepted_ms_p50", "ms"),
    lower("serve.run_ms_p50", "ms"),
    lower("serve.run_ms_p95", "ms"),
    lower("serve.new_job_ms_p50", "ms"),
    lower("serve.dedup_job_ms_p50", "ms"),
    lower("serve.stats_rtt_ms_p50", "ms"),
    lower("serve.spec_parse_us", "us"),
    lower("serve.request_parse_us", "us"),
    lower("serve.result_bytes_per_job", "B"),
    lower("serve.state_dir_bytes", "B"),
    lower("serve.jobs_submitted", "count"),
    higher("serve.jobs_deduped", "count"),
    lower("serve.points_executed", "count"),
    higher("serve.points_deduped", "count"),
    higher("serve.cache_hits", "count"),
    lower("serve.cache_misses", "count"),
    // the benchmark itself
    lower("bench.build_s", "s"),
    lower("bench.span_count", "spans"),
];

/// Per-layer metrics with unit `count` are counts made by the program: they
/// must repeat exactly between runs of one commit on one seed, and
/// `compare` says so when they do not.
pub fn is_count(metric: &Metric) -> bool {
    metric.unit == "count"
}

/// Values for one declared metric list. Per-layer sets start at 0 (a layer
/// the workload never enters); end-to-end sets start empty and must be
/// filled completely.
pub struct MetricSet {
    declared: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        MetricSet {
            declared: &END_TO_END,
            values: BTreeMap::new(),
        }
    }

    pub fn per_layer() -> Self {
        MetricSet {
            declared: &PER_LAYER,
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the list does not declare — a bug in the benchmark,
    /// not in what it measures.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = self
            .declared
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in schema.rs"));
        self.values.insert(metric.name, value);
    }

    /// `(metric, value)` in declaration order.
    ///
    /// # Errors
    ///
    /// Names every declared metric that was never set.
    pub fn finish(&self) -> Result<Vec<(&'static Metric, f64)>, String> {
        let missing: Vec<&str> = self
            .declared
            .iter()
            .filter(|m| !self.values.contains_key(m.name))
            .map(|m| m.name)
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics never measured: {}", missing.join(", ")));
        }
        Ok(self
            .declared
            .iter()
            .map(|m| (m, self.values[m.name]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_trace::json::{self, Value};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name:?} declared twice");
        }
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!(widest <= 0.25);
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    fn declared_in_json(doc: &Value, key: &str) -> Vec<Vec<(String, String)>> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
            .iter()
            .map(|entry| match entry {
                Value::Obj(pairs) => pairs
                    .iter()
                    .map(|(k, v)| {
                        let text = match v {
                            Value::Str(s) => s.clone(),
                            Value::Num(n) => n.to_string(),
                            other => panic!("unexpected value {other:?} under {key:?}"),
                        };
                        (k.clone(), text)
                    })
                    .collect(),
                other => panic!("{key:?} entry is not an object: {other:?}"),
            })
            .collect()
    }

    fn pairs(items: &[(&str, String)]) -> Vec<(String, String)> {
        items
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect()
    }

    /// Exact equality of the ordered lists covers both directions: nothing
    /// declared here is missing from the file and nothing in the file is
    /// undeclared here.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Value::Obj(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|(name, why)| pairs(&[("name", name.to_string()), ("why", why.to_string())]))
            .collect();
        assert_eq!(declared_in_json(&doc, "workloads"), workloads);
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                pairs(&[
                    ("name", m.name.to_string()),
                    ("unit", m.unit.to_string()),
                    ("better", m.better.as_str().to_string()),
                    ("bound", m.bound.unwrap().to_string()),
                ])
            })
            .collect();
        assert_eq!(declared_in_json(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                pairs(&[
                    ("name", m.name.to_string()),
                    ("unit", m.unit.to_string()),
                    ("better", m.better.as_str().to_string()),
                ])
            })
            .collect();
        assert_eq!(declared_in_json(&doc, "per_layer"), per_layer);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_num),
            Some(crate::runner::RUN_SECONDS)
        );
    }

    #[test]
    fn metric_sets_refuse_gaps_and_strangers() {
        let mut set = MetricSet::end_to_end();
        set.set("setup_s", 1.0);
        let err = set.finish().unwrap_err();
        assert!(err.contains("wall_s") && !err.contains("setup_s"), "{err}");
        for m in &END_TO_END {
            set.set(m.name, 2.0);
        }
        assert_eq!(set.finish().unwrap().len(), END_TO_END.len());
        let layers = MetricSet::per_layer().finish().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|(_, v)| *v == 0.0));
        let stranger = std::panic::catch_unwind(|| MetricSet::per_layer().set("sim.nope", 1.0));
        assert!(stranger.is_err());
    }
}
