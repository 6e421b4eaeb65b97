//! The committed `BENCH_*.json` files hold pins only.
//!
//! `latency bench --check` compares every leaf of them for equality, which
//! is only sound while every leaf is a pure function of the simulation.
//! This is the guard that keeps host time from drifting back in — in the
//! spirit of `ci/no-handwritten-json.sh`: the six files parse, compare
//! clean against themselves, and carry no key that names a wall-clock
//! quantity or the host it was taken on.
//!
//! The experiments suite is planned here too, without simulating: the
//! paper's rows share their runs, and every row has its pins and its
//! EXPERIMENTS.md block.

use gpu_trace::json::{self, Value};
use latency_bench::{compare_json, splice_doc, BfsExperiment, Plan, Spec, Workload, EXPERIMENTS};
use latency_core::ArchPreset;

const BASELINES: [(&str, &str); 6] = [
    ("sweep", include_str!("../BENCH_sweep.json")),
    ("tick", include_str!("../BENCH_tick.json")),
    ("workloads", include_str!("../BENCH_workloads.json")),
    ("serve", include_str!("../BENCH_serve.json")),
    ("validation", include_str!("../BENCH_validation.json")),
    ("experiments", include_str!("../BENCH_experiments.json")),
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

#[test]
fn the_paper_plan_executes_each_distinct_run_once() {
    let plan = Plan::paper(&EXPERIMENTS);
    let runs = |name: &str| &plan.rows.iter().find(|(r, _)| r.name == name).unwrap().1;
    let fig1 = runs("fig1")[0];
    assert_eq!(plan.runs[fig1].config(), &ArchPreset::FermiGf100.config());
    // The five rows that read the default GF100 BFS read one run.
    assert_eq!(runs("fig2")[..], [fig1]);
    assert_eq!(runs("dram_sched_ablation")[0], fig1);
    assert_eq!(runs("write_policy_ablation")[0], fig1);
    let hiding = runs("hiding_sweep");
    assert_eq!(hiding[8], fig1, "48 warps under LRR is the default machine");
    // 32 warps under LRR prints the same cycles, on another machine.
    let warps = |i: usize| plan.runs[i].config().max_warps_per_sm;
    assert_ne!(hiding[6], fig1);
    assert_eq!((warps(hiding[6]), warps(fig1)), (32, 48));
    // 16 fig1-size BFS runs are declared and 12 are distinct; E4 adds
    // eight workloads, arch_dynamic eight generations, E7 four chases.
    let fig1_size = |&i: &usize| match &plan.runs[i] {
        Spec::Traced(_, w, exp) => *w == Workload::bfs() && *exp == BfsExperiment::default(),
        Spec::Chase(..) => false,
    };
    let declared = plan
        .rows
        .iter()
        .flat_map(|(_, r)| r.iter().filter(|i| fig1_size(i)));
    assert_eq!(declared.count(), 16);
    assert_eq!((0..plan.runs.len()).filter(fig1_size).count(), 12);
    assert_eq!(plan.runs.len(), 12 + 8 + 8 + 4);
}

#[test]
fn every_row_has_pins_and_a_doc_block() {
    let doc = json::parse(include_str!("../BENCH_experiments.json")).expect("parses");
    let Some(Value::Obj(rows)) = doc.get("rows") else {
        panic!("BENCH_experiments.json has no rows object")
    };
    let pinned: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    let listed: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(pinned, listed);
    // Splicing empty renders changes every block, and finds each one.
    let empty: Vec<_> = listed.iter().map(|&name| (name, String::new())).collect();
    let (_, changed) = splice_doc(include_str!("../EXPERIMENTS.md"), &empty).expect("blocks");
    assert_eq!(changed, listed);
}

#[test]
fn doc_blocks_are_replaced_and_named_when_stale() {
    let rendered = [("fig1", "a\n".to_string())];
    let doc = "<!-- latency fig1 -->\n```text\na\n```\n<!-- end latency fig1 -->\n";
    assert_eq!(splice_doc(doc, &rendered), Ok((doc.to_string(), vec![])));
    let stale = doc.replace("\na\n", "\nb\n");
    assert_eq!(
        splice_doc(&stale, &rendered),
        Ok((doc.to_string(), vec!["fig1"]))
    );
    let err = splice_doc("intro\n", &rendered).unwrap_err();
    assert!(err.contains("<!-- latency fig1 -->"), "{err}");
}
