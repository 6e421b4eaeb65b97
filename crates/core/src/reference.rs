//! The published per-level latencies every preset is held to, written once
//! in `REFERENCE_latencies.json` at the repository root (embedded at compile
//! time): the paper's Table I for the paper-era generations, arXiv:2208.11174
//! and arXiv:2507.10789 for GV100/GA102. `latency table1` prints its "paper"
//! column from here; `latency-bench`'s published-reference check diffs every
//! preset's analytic and measured latencies against the same rows.

use gpu_sim::LevelKind;
use gpu_types::json::{self, Value};

use crate::presets::ArchPreset;

/// The published reference tables, committed at the repository root.
pub const REFERENCE_TABLES: &str = include_str!("../../../REFERENCE_latencies.json");

/// One published row: per-level unloaded latencies in cycles, `None` where
/// the chip does not expose the level to the global pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceRow {
    /// Canonical chip token ([`ArchPreset::token`]).
    pub token: String,
    /// Where the numbers come from (paper + table).
    pub source: String,
    /// Published L1 latency.
    pub l1: Option<u64>,
    /// Published L2 latency.
    pub l2: Option<u64>,
    /// Published DRAM latency.
    pub dram: u64,
}

impl ReferenceRow {
    /// The published latency of `kind`, if the chip exposes the level.
    pub fn level(&self, kind: LevelKind) -> Option<u64> {
        match kind {
            LevelKind::L1 => self.l1,
            LevelKind::L2 => self.l2,
            LevelKind::DramFront => Some(self.dram),
        }
    }
}

fn opt_cycles(row: &Value, key: &str) -> Result<Option<u64>, String> {
    match row.get(key) {
        Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        other => Err(format!(
            "reference row field {key:?} is not a cycle count or null: {other:?}"
        )),
    }
}

/// Parses [`REFERENCE_TABLES`], returning the tolerance (in percent) and
/// the published rows in file order.
///
/// # Errors
///
/// Returns `Err` when the committed file is malformed — a broken reference
/// table is a repo bug, not a validation finding.
pub fn reference_rows() -> Result<(f64, Vec<ReferenceRow>), String> {
    let doc = json::parse(REFERENCE_TABLES).map_err(|e| format!("reference table: {e}"))?;
    let tolerance_percent = doc
        .get("tolerance_percent")
        .and_then(Value::as_num)
        .filter(|t| *t > 0.0)
        .ok_or("reference table lacks a positive tolerance_percent")?;
    let rows = doc
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("reference table lacks a rows array")?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let text = |key: &str| {
            row.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("reference row lacks {key:?}"))
        };
        out.push(ReferenceRow {
            token: text("token")?,
            source: text("source")?,
            l1: opt_cycles(row, "l1")?,
            l2: opt_cycles(row, "l2")?,
            dram: opt_cycles(row, "dram")?.ok_or("reference row has null dram")?,
        });
    }
    Ok((tolerance_percent, out))
}

impl ArchPreset {
    /// This preset's published row in [`REFERENCE_TABLES`].
    ///
    /// # Panics
    ///
    /// Panics if the committed table is malformed or has no row for the
    /// preset — a repo bug, which the tests of this module catch.
    pub fn published(self) -> ReferenceRow {
        let (_, rows) = reference_rows().expect("REFERENCE_latencies.json parses");
        rows.into_iter()
            .find(|r| r.token == self.token())
            .unwrap_or_else(|| panic!("REFERENCE_latencies.json has no row {:?}", self.token()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_table_covers_every_registered_preset() {
        let (tolerance, rows) = reference_rows().expect("committed table parses");
        assert!(tolerance > 0.0);
        for preset in ArchPreset::ALL {
            let matching: Vec<&ReferenceRow> =
                rows.iter().filter(|r| r.token == preset.token()).collect();
            assert_eq!(matching.len(), 1, "rows for {}", preset.token());
            assert!(!matching[0].source.is_empty(), "{}", preset.token());
            assert_eq!(&preset.published(), matching[0]);
        }
        assert_eq!(rows.len(), ArchPreset::ALL.len(), "a row for no preset");
    }
}
