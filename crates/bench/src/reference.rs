//! Per-preset cross-validation against the published reference tables.
//!
//! Every registered [`ArchPreset`] is a hand-written data table claiming to
//! reproduce a *published* machine: the paper's Table I for the four
//! ISPASS 2015 generations (plus the GF100/GK110 derivatives), and the
//! modern-generation microbenchmark papers (arXiv:2208.11174,
//! arXiv:2507.10789) for the sectored GV100/GA102 presets. This module is
//! the harness that keeps those claims falsifiable: the published per-level
//! unloaded latencies are committed in-repo as `REFERENCE_latencies.json`
//! (embedded at compile time), and [`run_validation_bench`] diffs, for each
//! preset and each level the chip exposes to the global pipeline,
//!
//! - the **analytic** unloaded latency of the description
//!   ([`gpu_arch::ArchDesc::unloaded_latency`]), and
//! - the **measured** pointer-chase plateau
//!   ([`latency_core::measure_row`], the same measurement the Table I
//!   reproduction uses)
//!
//! against the published reference value, within the file's tolerance.
//! A presence mismatch (the chase finds a plateau the published table does
//! not have, or vice versa) is a violation too — a preset cannot silently
//! grow or lose a cache level.
//!
//! `latency validate` drives this from the command line (the CI preset
//! matrix runs it once per preset), and the bench harness commits the full
//! eight-preset result as `BENCH_validation.json`, pin-checked leaf for
//! leaf like the other four baselines ([`crate::regression`]).

use std::fmt::Write as _;

use gpu_arch::LevelKind;
use gpu_trace::json::{self, Fixed, Value, Writer};
use latency_core::{measure_row, ArchPreset};

/// The published reference tables, committed at the repository root and
/// embedded so the harness cannot run against a stale or missing copy.
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

/// One level's three-way comparison: published vs analytic vs chase-measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelValidation {
    /// Level label (`L1`, `L2`, `DRAM`).
    pub level: &'static str,
    /// Published latency from the committed reference table.
    pub reference: u64,
    /// Analytic unloaded latency of the preset's description.
    pub analytic: u64,
    /// Pointer-chase plateau the simulator measured.
    pub measured: f64,
}

impl LevelValidation {
    /// Relative error of the measured plateau against the published value.
    pub fn measured_rel_error(&self) -> f64 {
        (self.measured - self.reference as f64).abs() / self.reference as f64
    }

    /// Relative error of the analytic latency against the published value.
    pub fn analytic_rel_error(&self) -> f64 {
        (self.analytic as f64 - self.reference as f64).abs() / self.reference as f64
    }
}

/// One preset's verdict against its published row.
#[derive(Debug, Clone, PartialEq)]
pub struct PresetValidation {
    /// The validated preset.
    pub preset: ArchPreset,
    /// Citation carried over from the reference row.
    pub source: String,
    /// Per-level comparisons (levels present in both the published table
    /// and the measurement).
    pub levels: Vec<LevelValidation>,
    /// Violations, empty when the preset reproduces its published machine.
    pub violations: Vec<String>,
}

/// The full cross-validation record (`BENCH_validation.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationBench {
    /// Allowed relative divergence, in percent, from the committed table.
    pub tolerance_percent: f64,
    /// One row per validated preset, in request order.
    pub rows: Vec<PresetValidation>,
}

impl ValidationBench {
    /// `true` when every preset validated.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.violations.is_empty())
    }

    /// All violations across every preset, for error reporting.
    pub fn check(&self) -> Result<(), String> {
        let mut out = String::new();
        for row in &self.rows {
            for v in &row.violations {
                let _ = writeln!(out, "{}: {v}", row.preset.token());
            }
        }
        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }

    /// Renders the verdict as a human-readable table.
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "published-reference validation (tolerance {:.1}%)",
            self.tolerance_percent
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{} [{}] -> {}",
                row.preset.name(),
                row.source,
                if row.violations.is_empty() {
                    "ok"
                } else {
                    "FAIL"
                }
            );
            for l in &row.levels {
                let _ = writeln!(
                    out,
                    "  {:<4} published {:>4} cyc | analytic {:>4} cyc ({:+.2}%) | chase plateau {:>6.1} cyc ({:+.2}%)",
                    l.level,
                    l.reference,
                    l.analytic,
                    100.0 * (l.analytic as f64 / l.reference as f64 - 1.0),
                    l.measured,
                    100.0 * (l.measured / l.reference as f64 - 1.0),
                );
            }
            for v in &row.violations {
                let _ = writeln!(out, "  violation: {v}");
            }
        }
        out
    }

    /// Renders the committed `BENCH_validation.json` schema: every leaf is
    /// a pure function of the committed reference table and the (fully
    /// deterministic) simulation.
    pub fn json(&self) -> String {
        let mut w = Writer::indented();
        w.object().field("name", "validation");
        w.field("tolerance_percent", Fixed(self.tolerance_percent, 1));
        w.key("rows").array();
        for row in &self.rows {
            w.object().field("preset", row.preset.name());
            w.field("token", row.preset.token());
            w.field("source", &row.source);
            w.key("levels").array();
            for l in &row.levels {
                w.object().field("level", l.level);
                w.field("reference", l.reference);
                w.field("analytic", l.analytic);
                w.field("measured", Fixed(l.measured, 1)).end();
            }
            w.end().end();
        }
        w.finish()
    }
}

/// Validates one preset against its published row: presence, analytic
/// latency and measured plateau per level.
fn validate_preset(
    preset: ArchPreset,
    row: &ReferenceRow,
    measured: &latency_core::MeasuredRow,
    tolerance: f64,
) -> PresetValidation {
    let desc = preset.desc();
    let mut levels = Vec::new();
    let mut violations = Vec::new();
    let cells = [
        (LevelKind::L1, row.l1, measured.l1),
        (LevelKind::L2, row.l2, measured.l2),
        (LevelKind::DramFront, Some(row.dram), Some(measured.dram)),
    ];
    for (kind, published, plateau) in cells {
        match (published, plateau, desc.unloaded_latency(kind)) {
            // The published table and the chase agree the level is not
            // observable from the global pipeline; nothing to compare.
            (None, None, _) => {}
            (Some(reference), Some(measured), Some(analytic)) => {
                let l = LevelValidation {
                    level: kind.label(),
                    reference,
                    analytic,
                    measured,
                };
                if l.analytic_rel_error() > tolerance {
                    violations.push(format!(
                        "{}: analytic unloaded latency {} cyc diverges {:.2}% from published {} cyc",
                        kind.label(),
                        analytic,
                        100.0 * l.analytic_rel_error(),
                        reference
                    ));
                }
                if l.measured_rel_error() > tolerance {
                    violations.push(format!(
                        "{}: chase plateau {:.1} cyc diverges {:.2}% from published {} cyc",
                        kind.label(),
                        measured,
                        100.0 * l.measured_rel_error(),
                        reference
                    ));
                }
                levels.push(l);
            }
            (reference, plateau, analytic) => violations.push(format!(
                "{}: presence mismatch (published {reference:?}, chase plateau {plateau:?}, \
                 analytic {analytic:?})",
                kind.label()
            )),
        }
    }
    PresetValidation {
        preset,
        source: row.source.clone(),
        levels,
        violations,
    }
}

/// Runs the cross-validation harness for `presets`: one chase-measured row
/// each, diffed against the committed published table.
///
/// # Errors
///
/// Returns `Err` when the committed reference table is malformed or a chase
/// measurement fails outright; validation *findings* are reported in the
/// returned [`ValidationBench`], not as errors.
pub fn run_validation_bench(presets: &[ArchPreset]) -> Result<ValidationBench, String> {
    let (tolerance_percent, reference) = reference_rows()?;
    let tolerance = tolerance_percent / 100.0;
    let mut rows = Vec::with_capacity(presets.len());
    for &preset in presets {
        let Some(row) = reference.iter().find(|r| r.token == preset.token()) else {
            rows.push(PresetValidation {
                preset,
                source: String::new(),
                levels: Vec::new(),
                violations: vec![format!(
                    "no published reference row for token {:?} in REFERENCE_latencies.json",
                    preset.token()
                )],
            });
            continue;
        };
        let measured = measure_row(preset)
            .map_err(|e| format!("{}: chase measurement failed: {e}", preset.token()))?;
        rows.push(validate_preset(preset, row, &measured, tolerance));
    }
    Ok(ValidationBench {
        tolerance_percent,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_table_covers_every_registered_preset() {
        let (tolerance, rows) = reference_rows().expect("committed table parses");
        assert!(tolerance > 0.0);
        for preset in ArchPreset::ALL {
            let row = rows
                .iter()
                .find(|r| r.token == preset.token())
                .unwrap_or_else(|| panic!("no reference row for {}", preset.token()));
            assert!(!row.source.is_empty());
            // The committed published values and the preset's own expected
            // Table-I row must agree — two copies of the same literature.
            let expected = preset.table1_expected();
            assert_eq!(row.l1, expected.l1, "{} l1", preset.token());
            assert_eq!(row.l2, expected.l2, "{} l2", preset.token());
            assert_eq!(row.dram, expected.dram, "{} dram", preset.token());
        }
    }

    fn fake_bench() -> ValidationBench {
        ValidationBench {
            tolerance_percent: 2.0,
            rows: vec![PresetValidation {
                preset: ArchPreset::VoltaGv100,
                source: "arXiv:2208.11174".to_string(),
                levels: vec![
                    LevelValidation {
                        level: "L1",
                        reference: 28,
                        analytic: 28,
                        measured: 28.0,
                    },
                    LevelValidation {
                        level: "DRAM",
                        reference: 472,
                        analytic: 472,
                        measured: 472.0,
                    },
                ],
                violations: Vec::new(),
            }],
        }
    }

    /// A citation is free text from `REFERENCE_latencies.json`; quotes and
    /// backslashes in it must survive into `BENCH_validation.json`.
    #[test]
    fn sources_with_quotes_and_backslashes_round_trip() {
        let mut bench = fake_bench();
        let source = "Mei & Chu, \"Dissecting GPU memory\" (arXiv 1509.02308), table\\II";
        bench.rows[0].source = source.to_string();
        let doc = json::parse(&bench.json()).expect("valid json");
        let rows = doc.get("rows").and_then(Value::as_arr).expect("rows");
        assert_eq!(rows[0].get("source").and_then(Value::as_str), Some(source));
    }

    #[test]
    fn validation_json_parses_and_keeps_schema() {
        let doc = json::parse(&fake_bench().json()).expect("valid json");
        assert_eq!(doc.get("name").and_then(Value::as_str), Some("validation"));
        let rows = doc.get("rows").and_then(Value::as_arr).expect("rows");
        assert_eq!(rows[0].get("token").and_then(Value::as_str), Some("gv100"));
        let levels = rows[0]
            .get("levels")
            .and_then(Value::as_arr)
            .expect("levels");
        assert_eq!(levels.len(), 2);
        assert_eq!(
            levels[0].get("reference").and_then(Value::as_num),
            Some(28.0)
        );
        assert_eq!(
            levels[1].get("measured").and_then(Value::as_num),
            Some(472.0)
        );
    }

    #[test]
    fn divergence_is_a_violation_not_an_error() {
        let (_, rows) = reference_rows().expect("parses");
        let row = rows.iter().find(|r| r.token == "gv100").expect("gv100 row");
        let measured = latency_core::MeasuredRow {
            l1: Some(28.0),
            l2: Some(250.0), // ~30% off the published 193
            dram: 472.0,
        };
        let v = validate_preset(ArchPreset::VoltaGv100, row, &measured, 0.02);
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(
            v.violations[0].contains("chase plateau"),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn presence_mismatch_is_a_violation() {
        let (_, rows) = reference_rows().expect("parses");
        let row = rows.iter().find(|r| r.token == "gv100").expect("gv100 row");
        let measured = latency_core::MeasuredRow {
            l1: None, // chase lost the L1 plateau
            l2: Some(193.0),
            dram: 472.0,
        };
        let v = validate_preset(ArchPreset::VoltaGv100, row, &measured, 0.02);
        assert!(
            v.violations.iter().any(|m| m.contains("presence mismatch")),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn gt200_validates_against_the_published_row() {
        // End-to-end on the cheapest preset: DRAM-only machine, one chase.
        let bench = run_validation_bench(&[ArchPreset::TeslaGt200]).expect("harness runs");
        assert!(bench.ok(), "{}", bench.to_human());
        assert_eq!(bench.rows[0].levels.len(), 1);
        assert_eq!(bench.rows[0].levels[0].level, "DRAM");
    }
}
