//! The committed `BENCH_*.json` files hold pins only.
//!
//! `latency bench --check` compares every leaf of them for equality, which
//! is only sound while every leaf is a pure function of the simulation.
//! This is the guard that keeps host time from drifting back in — in the
//! spirit of `ci/no-handwritten-json.sh`: the five files parse, compare
//! clean against themselves, and carry no key that names a wall-clock
//! quantity or the host it was taken on.

use gpu_trace::json::{self, Value};
use latency_bench::compare_json;

const BASELINES: [(&str, &str); 5] = [
    ("sweep", include_str!("../BENCH_sweep.json")),
    ("tick", include_str!("../BENCH_tick.json")),
    ("workloads", include_str!("../BENCH_workloads.json")),
    ("serve", include_str!("../BENCH_serve.json")),
    ("validation", include_str!("../BENCH_validation.json")),
];

const TIMING_SUFFIXES: [&str; 3] = ["_seconds", "_per_second", "_nanos"];
const TIMING_KEYS: [&str; 5] = [
    "speedup",
    "speedup_vs_serial",
    "warm_hit_rate",
    "stages",
    "host_cpus",
];

/// Every object key in `v`, at any depth.
fn keys<'a>(v: &'a Value, out: &mut Vec<&'a str>) {
    match v {
        Value::Obj(pairs) => {
            for (k, child) in pairs {
                out.push(k);
                keys(child, out);
            }
        }
        Value::Arr(items) => items.iter().for_each(|child| keys(child, out)),
        _ => {}
    }
}

#[test]
fn committed_baselines_are_pins_only() {
    for (suite, text) in BASELINES {
        let doc = json::parse(text).unwrap_or_else(|e| panic!("BENCH_{suite}.json: {e}"));
        assert_eq!(
            doc.get("name").and_then(Value::as_str),
            Some(suite),
            "BENCH_{suite}.json names another suite"
        );
        let findings = compare_json(text, text).expect("parsed once already");
        assert!(
            findings.is_empty(),
            "BENCH_{suite}.json vs itself: {findings:?}"
        );

        let mut all = Vec::new();
        keys(&doc, &mut all);
        assert!(!all.is_empty());
        for key in all {
            assert!(
                !TIMING_KEYS.contains(&key) && !TIMING_SUFFIXES.iter().any(|s| key.ends_with(s)),
                "BENCH_{suite}.json carries {key:?}: host time belongs on the [bench] \
                 stdout lines and in bench-out/profile.json, not in a committed pin file"
            );
        }
    }
}
