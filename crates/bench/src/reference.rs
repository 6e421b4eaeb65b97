//! The published-reference check: every preset against its published row.
//!
//! Every registered [`ArchPreset`] is a hand-written data table claiming to
//! reproduce a *published* machine: the paper's Table I for the four
//! ISPASS 2015 generations (plus the GF100/GK110 derivatives), and the
//! modern-generation microbenchmark papers (arXiv:2208.11174,
//! arXiv:2507.10789) for the sectored GV100/GA102 presets. The published
//! per-level unloaded latencies are written once, in
//! `REFERENCE_latencies.json` ([`latency_core::reference_rows`]), and
//! [`run_validation_bench`] is the one place they are compared with the
//! model: for each preset and each level the chip exposes to the global
//! pipeline it takes
//!
//! - the **analytic** unloaded latency of the description
//!   ([`gpu_arch::ArchDesc::unloaded_latency`]), and
//! - the **measured** pointer-chase plateau
//!   ([`latency_core::Table1::measure_presets`], the Table I measurement,
//!   all requested presets in one pooled batch)
//!
//! and reports a violation when
//!
//! - either diverges from the published value by more than the file's
//!   tolerance;
//! - the analytic latency exceeds the measurement — contract C of the
//!   static analyzer: the unloaded latency is a floor, so no chase may beat
//!   it (`lint --validate` prints these floor lines);
//! - the level is present in one of the three and absent from another — a
//!   preset cannot silently grow or lose a cache level.
//!
//! `latency validate` drives this from the command line (the CI preset
//! matrix runs it once per preset), and the bench harness commits the full
//! eight-preset result as `BENCH_validation.json`, pin-checked leaf for
//! leaf like the other four baselines ([`crate::regression`]).

use std::fmt::Write as _;

use gpu_arch::LevelKind;
use gpu_trace::json::{Fixed, Writer};
use latency_core::{reference_rows, ArchPreset, MeasuredRow, ReferenceRow, Table1};

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

impl PresetValidation {
    fn verdict(&self) -> &'static str {
        if self.violations.is_empty() {
            "ok"
        } else {
            "FAIL"
        }
    }

    /// Renders the floor half of the verdict (analytic <= measured per
    /// level), as `lint --validate` prints it beside contracts A and B.
    pub fn floor_human(&self) -> String {
        let mut out = format!(
            "{}: floor check -> {}\n",
            self.preset.name(),
            self.verdict()
        );
        for l in &self.levels {
            let _ = writeln!(
                out,
                "  {}: analytic {} cyc <= measured {:.1} cyc",
                l.level, l.analytic, l.measured
            );
        }
        for v in &self.violations {
            let _ = writeln!(out, "  violation: {v}");
        }
        out
    }
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
                row.verdict()
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
/// latency, measured plateau and the analytic floor per level.
fn validate_preset(
    preset: ArchPreset,
    row: &ReferenceRow,
    measured: &MeasuredRow,
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
                let off = |v: f64| (v - reference as f64).abs() / reference as f64;
                if off(analytic as f64) > tolerance {
                    violations.push(format!(
                        "{}: analytic unloaded latency {} cyc diverges {:.2}% from published {} cyc",
                        kind.label(),
                        analytic,
                        100.0 * off(analytic as f64),
                        reference
                    ));
                }
                if off(measured) > tolerance {
                    violations.push(format!(
                        "{}: chase plateau {:.1} cyc diverges {:.2}% from published {} cyc",
                        kind.label(),
                        measured,
                        100.0 * off(measured),
                        reference
                    ));
                }
                if analytic as f64 > measured {
                    violations.push(format!(
                        "{}: analytic floor {} cyc exceeds measured {:.1} cyc",
                        kind.label(),
                        analytic,
                        measured
                    ));
                }
                levels.push(LevelValidation {
                    level: kind.label(),
                    reference,
                    analytic,
                    measured,
                });
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

/// Runs the published-reference check for `presets`: their Table I rows,
/// measured in one pooled batch, each diffed against its published row.
///
/// # Errors
///
/// Returns `Err` when the committed reference table is malformed or lacks a
/// requested preset, or a chase measurement fails outright; validation
/// *findings* are reported in the returned [`ValidationBench`], not as
/// errors.
pub fn run_validation_bench(presets: &[ArchPreset]) -> Result<ValidationBench, String> {
    let (tolerance_percent, reference) = reference_rows()?;
    let published = presets
        .iter()
        .map(|p| {
            reference
                .iter()
                .find(|r| r.token == p.token())
                .ok_or(format!(
                    "no published reference row for token {:?} in REFERENCE_latencies.json",
                    p.token()
                ))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let table =
        Table1::measure_presets(presets).map_err(|e| format!("chase measurement failed: {e}"))?;
    let rows = table
        .rows()
        .iter()
        .zip(published)
        .map(|((preset, measured), row)| {
            validate_preset(*preset, row, measured, tolerance_percent / 100.0)
        })
        .collect();
    Ok(ValidationBench {
        tolerance_percent,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_trace::json::{self, Value};

    /// A measurement that reproduces `row` exactly.
    fn exact(row: &ReferenceRow) -> MeasuredRow {
        MeasuredRow {
            l1: row.l1.map(|c| c as f64),
            l2: row.l2.map(|c| c as f64),
            dram: row.dram as f64,
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
        let row = ArchPreset::VoltaGv100.published();
        let measured = MeasuredRow {
            l2: row.l2.map(|c| c as f64 * 1.3),
            ..exact(&row)
        };
        let v = validate_preset(ArchPreset::VoltaGv100, &row, &measured, 0.02);
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(
            v.violations[0].contains("chase plateau"),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn presence_mismatch_is_a_violation() {
        // Published but not measured: the chase lost GV100's L1 plateau.
        let row = ArchPreset::VoltaGv100.published();
        let lost = MeasuredRow {
            l1: None,
            ..exact(&row)
        };
        let v = validate_preset(ArchPreset::VoltaGv100, &row, &lost, 0.02);
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(
            v.violations[0].starts_with("L1: presence mismatch"),
            "{v:?}"
        );
        // Measured but not published: a plateau GM107 has no L1 for.
        let row = ArchPreset::MaxwellGm107.published();
        let grown = MeasuredRow {
            l1: Some(40.0),
            ..exact(&row)
        };
        let v = validate_preset(ArchPreset::MaxwellGm107, &row, &grown, 0.02);
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(
            v.violations[0].starts_with("L1: presence mismatch"),
            "{v:?}"
        );
    }

    /// Contract C: a chase that beats the description's analytic floor,
    /// while staying within tolerance of the published value, is exactly
    /// one violation — the floor rule's.
    #[test]
    fn analytic_floor_above_measurement_is_one_violation() {
        let row = ArchPreset::VoltaGv100.published();
        let measured = MeasuredRow {
            dram: row.dram as f64 - 0.5,
            ..exact(&row)
        };
        let v = validate_preset(ArchPreset::VoltaGv100, &row, &measured, 0.02);
        assert_eq!(
            v.violations,
            [format!(
                "DRAM: analytic floor {} cyc exceeds measured {:.1} cyc",
                row.dram, measured.dram
            )]
        );
        let floor = v.floor_human();
        assert!(
            floor.starts_with("GV100 (Volta): floor check -> FAIL\n"),
            "{floor}"
        );
        assert!(floor.ends_with(&format!("  violation: {}\n", v.violations[0])));
    }

    #[test]
    fn gt200_validates_against_the_published_row() {
        // End-to-end on the cheapest preset: DRAM-only machine, one chase.
        let bench = run_validation_bench(&[ArchPreset::TeslaGt200]).expect("harness runs");
        assert!(bench.check().is_ok(), "{}", bench.to_human());
        assert_eq!(bench.rows[0].levels.len(), 1);
        assert_eq!(bench.rows[0].levels[0].level, "DRAM");
        let dram = ArchPreset::TeslaGt200.published().dram;
        assert_eq!(
            bench.rows[0].floor_human(),
            format!("GT200 (Tesla): floor check -> ok\n  DRAM: analytic {dram} cyc <= measured {dram}.0 cyc\n")
        );
    }
}
