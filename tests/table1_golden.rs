//! The reproduced Table I equals the published one exactly: every preset's
//! measured L1/L2/DRAM latency is the cycle count `REFERENCE_latencies.json`
//! publishes for it (`ArchPreset::published`), the one place those numbers
//! are written. A level the table marks absent (`null`) is measured absent.
//!
//! Unlike the tolerance-based reproduction test, these are **exact-match**
//! assertions: the simulator is deterministic, so any drift — a timing
//! tweak, a cache-model change, a different chase layout, a PRNG change —
//! must show up here as a conscious, reviewed change rather than sliding
//! silently within the 2% band.

use latency_core::{measure_row, ArchPreset, MeasuredRow, Table1};

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

/// The batched full-table path produces the same values as the one-preset
/// call (guards the pooled batching in `measure_presets`).
#[test]
fn full_table_matches_golden_snapshot_exactly() {
    let table = Table1::measure_presets(&ArchPreset::TABLE1).expect("table measures");
    assert_eq!(table.rows().len(), ArchPreset::TABLE1.len());
    for (preset, measured) in table.rows() {
        assert_published(*preset, measured);
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
