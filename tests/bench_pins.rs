//! The committed `BENCH_experiments.json` holds pins only.
//!
//! `latency bench --check` compares every leaf of it for equality, which
//! is only sound while every leaf is a pure function of the simulation.
//! This is the guard that keeps host time from drifting back in — in the
//! spirit of `ci/no-handwritten-json.sh`: the file parses, compares clean
//! against itself, and carries no key that names a wall-clock quantity or
//! the host it was taken on.
//!
//! The experiment list is planned here too, without simulating: the
//! paper's rows share their runs, and every row has its pins and its
//! EXPERIMENTS.md block.

use gpu_trace::json::{self, Value};
use latency_bench::{
    compare_json, splice_doc, sweep_grid_spec, BfsExperiment, Plan, Spec, Workload, EXPERIMENTS,
};
use latency_core::{ArchPreset, ChaseParams};

const BASELINES: [(&str, &str); 1] = [("experiments", include_str!("../BENCH_experiments.json"))];

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
                 stdout lines and in the opt-in profile.json, not in a committed pin file"
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
    // eight workloads on GF100 and the same eight on GV100, arch_dynamic
    // eight generations, E7 four chases.
    let fig1_size = |&i: &usize| match &plan.runs[i] {
        Spec::Traced(_, w, exp) => *w == Workload::bfs() && *exp == BfsExperiment::default(),
        _ => false,
    };
    let declared = plan
        .rows
        .iter()
        .flat_map(|(_, r)| r.iter().filter(|i| fig1_size(i)));
    assert_eq!(declared.count(), 16);
    assert_eq!((0..plan.runs.len()).filter(fig1_size).count(), 12);
    // Table I's chase points are a subset of the published-reference
    // check's, and each (preset, level) point is planned once: 21 over the
    // eight presets.
    let (table1, validate) = (runs("table1"), runs("validate"));
    assert!(table1.iter().all(|i| validate.contains(i)), "{table1:?}");
    let points: Vec<_> = (plan.runs.iter())
        .filter_map(|run| match run {
            Spec::Point(preset, ..) => Some((*preset, run.level()?)),
            _ => None,
        })
        .collect();
    assert_eq!(points.len(), validate.len());
    assert_eq!(points.len(), 21);
    for (i, point) in points.iter().enumerate() {
        assert!(!points[..i].contains(point), "{point:?} planned twice");
    }
    // §II's sweep reads, per preset, its grid's 32 measurable cells (4 of
    // the 36 chains are too short) and then one inference run.
    let sweep = runs("sweep");
    let (footprints, strides) = sweep_grid_spec();
    assert_eq!(footprints.len() * strides.len(), 36);
    assert_eq!(sweep.len(), ArchPreset::ALL.len() * (32 + 1));
    for (preset, sweep) in ArchPreset::ALL.iter().zip(sweep.chunks(32 + 1)) {
        let (grid, infer) = sweep.split_at(32);
        let on_preset = |i: &usize| matches!(&plan.runs[*i], Spec::Point(p, ..) if p == preset);
        assert!(grid.iter().all(on_preset), "{preset:?}");
        assert!(matches!(&plan.runs[infer[0]], Spec::Infer(p, _) if p == preset));
    }
    // A grid cell that is a Table I point is that point's run: GF106's L1
    // and L2 points are read by `table1` and `sweep` alike.
    for (footprint, stride) in [(4096, 128), (64 * 1024, 512)] {
        let cell = ChaseParams::global(footprint, stride);
        let gf106 = |i: &usize| match &plan.runs[*i] {
            Spec::Point(ArchPreset::FermiGf106, _, params) => *params == cell,
            _ => false,
        };
        let [point] = table1.iter().copied().filter(gf106).collect::<Vec<_>>()[..] else {
            panic!("GF106's {cell:?} is not one Table I point")
        };
        assert_eq!(sweep.iter().filter(|&&i| i == point).count(), 1);
    }
    // No two runs of the plan are equal.
    for (i, run) in plan.runs.iter().enumerate() {
        assert!(!plan.runs[..i].contains(run), "{run} planned twice");
    }
    // Every global L1 and L2 point on a grid cell: two on GF106, GF100,
    // GK110, GV100 and GA102, the L2 point on GK104 and GM107.
    let shared = sweep.iter().filter(|i| validate.contains(i)).count();
    assert_eq!(shared, 12);
    assert_eq!(
        plan.runs.len(),
        12 + 16 + 8 + 4 + 21 + ArchPreset::ALL.len() * 33 - shared
    );
    let machine = |i: &usize| &plan.runs[*i].config().name;
    let e4: Vec<_> = runs("other_workloads").iter().map(machine).collect();
    assert_eq!(e4.len(), 16);
    assert!(e4[..8].iter().all(|m| *m == "GF100 (Fermi)"), "{e4:?}");
    assert!(e4[8..].iter().all(|m| *m == "GV100 (Volta)"), "{e4:?}");
}

#[test]
fn every_traced_run_pins_its_idle_coverage() {
    // The run loop's jumps and sleeps change no output, so these pins are
    // what catches a `next_event` that turned needlessly early.
    let doc = json::parse(include_str!("../BENCH_experiments.json")).expect("parses");
    let Some(Value::Obj(rows)) = doc.get("rows") else {
        panic!("BENCH_experiments.json has no rows object")
    };
    let mut traced = 0;
    for (row, records) in rows {
        let records = records.as_arr().expect("a row pins an array of runs");
        for record in records.iter().filter(|r| r.get("content_hash").is_some()) {
            let pin = |key: &str| {
                let value = record.get(key).and_then(Value::as_num);
                value.unwrap_or_else(|| panic!("{row}: a traced run without {key}")) as u64
            };
            let (cycles, skipped) = (pin("cycles"), pin("skipped_cycles"));
            assert!(skipped < cycles, "{row}: skipped {skipped} of {cycles}");
            pin("sm_ticks_slept");
            pin("sm_port_sleeps");
            pin("partition_ticks_slept");
            traced += 1;
        }
    }
    // fig1, fig2, E5, E6 and E8 read 16 BFS runs, E4 16 workloads and
    // arch_dynamic 8; E7's chases have no traces.
    assert_eq!(traced, 16 + 16 + 8);
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
