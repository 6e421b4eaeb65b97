//! The reproduced Table I equals the published one exactly: every preset's
//! measured L1/L2/DRAM latency is the cycle count `REFERENCE_latencies.json`
//! publishes for it (`ArchPreset::published`), the one place those numbers
//! are written. A level the table marks absent (`null`) is measured absent.
//!
//! These are **exact-match** assertions: the simulator is deterministic, so
//! any drift — a timing tweak, a cache-model change, a different chase
//! layout, a PRNG change — must show up here as a conscious, reviewed
//! change rather than sliding silently within the published reference's
//! tolerance.

use latency_bench::{Plan, Record, EXPERIMENTS};
use latency_core::{clear_worker_count, measure_row, set_worker_count, ArchPreset, MeasuredRow};

/// Asserts `measured` is `preset`'s published row, level for level.
fn assert_published(preset: ArchPreset, measured: &MeasuredRow) {
    let row = preset.published();
    let cycles = |c: Option<u64>| c.map(|c| c as f64);
    assert_eq!(
        (measured.l1, measured.l2, measured.dram),
        (cycles(row.l1), cycles(row.l2), row.dram as f64),
        "{}: measured row drifted from the published row",
        preset.name()
    );
}

/// Every Table I cell equals the published value exactly (f64 equality —
/// the measurement is a deterministic cycle count divided by a constant).
#[test]
fn measured_rows_match_golden_snapshot_exactly() {
    for preset in ArchPreset::TABLE1 {
        assert_published(preset, &measure_row(preset).expect("chase runs"));
    }
}

/// The `table1` row's plan: the paper presets' chase points, one pooled
/// batch.
fn table1_plan() -> Plan {
    Plan::paper(EXPERIMENTS.iter().filter(|e| e.name == "table1"))
}

fn execute(plan: &Plan) -> Vec<Record> {
    let executed = plan.execute().expect("the points measure");
    executed.into_iter().map(|(record, _)| record).collect()
}

/// The experiment list's table — every paper preset's points planned in
/// one batch — measures the same values as the one-preset call.
#[test]
fn full_table_matches_golden_snapshot_exactly() {
    let plan = table1_plan();
    let rows = plan.measured_rows(&execute(&plan));
    let presets: Vec<ArchPreset> = rows.iter().map(|(preset, _)| *preset).collect();
    assert_eq!(presets, ArchPreset::TABLE1);
    for (preset, measured) in &rows {
        assert_published(*preset, measured);
    }
}

/// The `table1` row measures and prints identically at 1 and at 2/5/8
/// workers: at one worker the pool is a plain serial loop.
#[test]
fn table1_is_identical_across_worker_counts() {
    let plan = table1_plan();
    let at = |workers| {
        set_worker_count(workers);
        let records = execute(&plan);
        clear_worker_count();
        (plan.measured_rows(&records), plan.render(&records))
    };
    let serial = at(1);
    for workers in [2, 5, 8] {
        assert_eq!(serial, at(workers), "table differs with {workers} workers");
    }
}

/// GK110 — the description-driven preset outside the paper's four columns —
/// recovers GK104's timings exactly, with the L1 row measured through the
/// global pipeline (its routing table caches global reads in the L1).
#[test]
fn gk110_row_matches_golden_snapshot_exactly() {
    let measured = measure_row(ArchPreset::KeplerGk110).expect("chase runs");
    assert_published(ArchPreset::KeplerGk110, &measured);
    assert_published(ArchPreset::KeplerGk104, &measured);
}

/// The modern sectored presets recover their published rows exactly
/// through the same generic chase machinery (sector fills, sliced L2 and a
/// non-power-of-two partition count included).
#[test]
fn modern_rows_match_golden_snapshot_exactly() {
    for preset in [ArchPreset::VoltaGv100, ArchPreset::AmpereGa102] {
        assert_published(preset, &measure_row(preset).expect("chase runs"));
    }
}
