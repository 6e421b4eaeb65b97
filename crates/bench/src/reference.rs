//! The published-reference check: every preset against its published row.
//!
//! Every registered [`ArchPreset`] is a hand-written data table claiming to
//! reproduce a *published* machine: the paper's Table I for the four
//! ISPASS 2015 generations (plus the GF100/GK110 derivatives), and the
//! modern-generation microbenchmark papers (arXiv:2208.11174,
//! arXiv:2507.10789) for the sectored GV100/GA102 presets. The published
//! per-level unloaded latencies are written once, in
//! `REFERENCE_latencies.json` ([`latency_core::reference_rows`]); each
//! level's chase point is measured once, as a run of the experiment list
//! ([`crate::Spec::Point`]); and `validate_level` is the one rule set
//! comparing them with the model. For each level it takes
//!
//! - the **analytic** unloaded latency of the description
//!   ([`gpu_arch::ArchDesc::unloaded_latency`]), and
//! - the **measured** pointer-chase plateau
//!
//! and reports a violation when
//!
//! - either diverges from the published value by more than the file's
//!   tolerance;
//! - the analytic latency exceeds the measurement — contract C of the
//!   static analyzer: the unloaded latency is a floor, so no chase may beat
//!   it (contracts A and B are checked on traced runs, [`crate::validate`]);
//! - the level is present in one of the three and absent from another — a
//!   preset cannot silently grow or lose a cache level.
//!
//! Every chase point is held to these rules as it is reduced
//! ([`check_point`]), so a violation fails the experiment list — `latency
//! table1`, `latency validate` and `latency bench` alike. The
//! `validate` row prints every preset's verdict ([`validate_preset`]) and
//! pins each point's comparison ([`PointCheck`]) in
//! `BENCH_experiments.json`.

use std::fmt::Write as _;

use gpu_arch::{ArchDesc, LevelKind};
use gpu_trace::json::Writer;
use latency_core::{reference_rows, ArchPreset, MeasuredRow, ReferenceRow};

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
    /// Renders the whole verdict, as `latency validate` prints it.
    pub fn to_human(&self) -> String {
        let verdict = if self.violations.is_empty() {
            "ok"
        } else {
            "FAIL"
        };
        let mut out = format!("{} [{}] -> {verdict}\n", self.preset.name(), self.source);
        for l in &self.levels {
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
        for v in &self.violations {
            let _ = writeln!(out, "  violation: {v}");
        }
        out
    }
}

/// The rules for one level of `desc`: presence in the published table, the
/// description and the measurement alike, the analytic and measured
/// latencies within `tolerance` of the published one, and the analytic
/// floor under the measurement. Pushes each broken rule onto `violations`
/// and returns the comparison when all three have the level.
fn validate_level(
    desc: &ArchDesc,
    kind: LevelKind,
    published: Option<u64>,
    measured: Option<f64>,
    tolerance: f64,
    violations: &mut Vec<String>,
) -> Option<LevelValidation> {
    let label = kind.label();
    match (published, measured, desc.unloaded_latency(kind)) {
        // The published table and the chase agree the level is not
        // observable from the global pipeline; nothing to compare.
        (None, None, _) => None,
        (Some(reference), Some(measured), Some(analytic)) => {
            let off = |v: f64| (v - reference as f64).abs() / reference as f64;
            if off(analytic as f64) > tolerance {
                violations.push(format!(
                    "{label}: analytic unloaded latency {analytic} cyc diverges {:.2}% from published {reference} cyc",
                    100.0 * off(analytic as f64),
                ));
            }
            if off(measured) > tolerance {
                violations.push(format!(
                    "{label}: chase plateau {measured:.1} cyc diverges {:.2}% from published {reference} cyc",
                    100.0 * off(measured),
                ));
            }
            if analytic as f64 > measured {
                violations.push(format!(
                    "{label}: analytic floor {analytic} cyc exceeds measured {measured:.1} cyc"
                ));
            }
            Some(LevelValidation {
                level: label,
                reference,
                analytic,
                measured,
            })
        }
        (reference, plateau, analytic) => {
            violations.push(format!(
                "{label}: presence mismatch (published {reference:?}, chase plateau {plateau:?}, \
                 analytic {analytic:?})"
            ));
            None
        }
    }
}

/// Validates one preset against its published row: `validate_level` on
/// every level.
pub fn validate_preset(
    preset: ArchPreset,
    row: &ReferenceRow,
    measured: &MeasuredRow,
    tolerance: f64,
) -> PresetValidation {
    let desc = preset.desc();
    let mut violations = Vec::new();
    let levels = LevelKind::ALL
        .into_iter()
        .filter_map(|kind| {
            let (published, plateau) = (row.level(kind), measured.level(kind));
            validate_level(&desc, kind, published, plateau, tolerance, &mut violations)
        })
        .collect();
    PresetValidation {
        preset,
        source: row.source.clone(),
        levels,
        violations,
    }
}

/// The committed tolerance, in percent.
fn tolerance_percent() -> f64 {
    reference_rows().expect("REFERENCE_latencies.json parses").0
}

/// Every preset's verdict over its measured `rows`, under the committed
/// tolerance (in percent, returned beside them).
pub fn validate_rows(rows: &[(ArchPreset, MeasuredRow)]) -> (f64, Vec<PresetValidation>) {
    let tolerance = tolerance_percent();
    let verdict = |(preset, measured): &(ArchPreset, MeasuredRow)| {
        validate_preset(*preset, &preset.published(), measured, tolerance / 100.0)
    };
    (tolerance, rows.iter().map(verdict).collect())
}

/// One chase point's published-reference verdict, as the `validate` row
/// pins it beside the point's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PointCheck {
    /// Citation of the published row.
    pub source: String,
    /// Allowed relative divergence, in percent.
    pub tolerance_percent: f64,
    /// The level's comparison.
    pub level: LevelValidation,
}

impl PointCheck {
    /// Writes the verdict's members into the open object.
    pub fn write_pins(&self, w: &mut Writer) {
        w.field("source", &self.source);
        w.field("tolerance_percent", self.tolerance_percent);
        w.field("reference", self.level.reference);
        w.field("analytic", self.level.analytic);
    }
}

/// Holds one measured chase point of `preset` to `validate_level`: its
/// own level, and every level the description has no point for (a
/// published level the description lost).
///
/// # Errors
///
/// Names the preset, the point's level with its published, analytic and
/// measured values, and each broken rule.
pub fn check_point(
    preset: ArchPreset,
    kind: LevelKind,
    measured: f64,
) -> Result<PointCheck, String> {
    let (desc, row, tolerance) = (preset.desc(), preset.published(), tolerance_percent());
    let mut violations = Vec::new();
    let mut rules = |k: LevelKind, plateau| {
        validate_level(
            &desc,
            k,
            row.level(k),
            plateau,
            tolerance / 100.0,
            &mut violations,
        )
    };
    for other in LevelKind::ALL {
        if other != kind && desc.unloaded_latency(other).is_none() {
            rules(other, None);
        }
    }
    let level = rules(kind, Some(measured));
    let published = row.level(kind);
    match level {
        Some(level) if violations.is_empty() => Ok(PointCheck {
            source: row.source,
            tolerance_percent: tolerance,
            level,
        }),
        _ => {
            let cycles = |c: Option<u64>| c.map_or("none".to_string(), |c| format!("{c} cyc"));
            Err(format!(
                "{} {} diverged from the published reference (published {}, analytic {}, \
                 measured {measured:.1} cyc): {}",
                preset.name(),
                kind.label(),
                cycles(published),
                cycles(desc.unloaded_latency(kind)),
                violations.join("; ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_trace::json::{self, Value};
    use latency_core::measure_row;

    /// A measurement that reproduces `row` exactly.
    fn exact(row: &ReferenceRow) -> MeasuredRow {
        MeasuredRow {
            l1: row.l1.map(|c| c as f64),
            l2: row.l2.map(|c| c as f64),
            dram: row.dram as f64,
        }
    }

    /// A point check's pins, in an object of their own.
    fn pins(check: &PointCheck) -> Value {
        let mut w = Writer::indented();
        w.object();
        check.write_pins(&mut w);
        json::parse(&w.finish()).expect("valid json")
    }

    fn gv100_l1() -> PointCheck {
        check_point(ArchPreset::VoltaGv100, LevelKind::L1, 28.0).expect("GV100's L1 is published")
    }

    /// A citation is free text from `REFERENCE_latencies.json`; quotes and
    /// backslashes in it must survive into `BENCH_experiments.json`.
    #[test]
    fn sources_with_quotes_and_backslashes_round_trip() {
        let source = "Mei & Chu, \"Dissecting GPU memory\" (arXiv 1509.02308), table\\II";
        let check = PointCheck {
            source: source.to_string(),
            ..gv100_l1()
        };
        assert_eq!(
            pins(&check).get("source").and_then(Value::as_str),
            Some(source)
        );
    }

    #[test]
    fn validation_json_parses_and_keeps_schema() {
        let doc = pins(&gv100_l1());
        let num = |key: &str| doc.get(key).and_then(Value::as_num);
        assert_eq!(num("tolerance_percent"), Some(2.0));
        assert_eq!(
            (num("reference"), num("analytic")),
            (Some(28.0), Some(28.0))
        );
        let source = doc.get("source").and_then(Value::as_str);
        assert_eq!(
            source,
            Some(ArchPreset::VoltaGv100.published().source.as_str())
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
        // Reduced as a chase point, that plateau fails its check.
        let err = check_point(ArchPreset::MaxwellGm107, LevelKind::L1, 40.0).unwrap_err();
        assert!(err.starts_with("GM107 (Maxwell) L1 diverged"), "{err}");
        assert!(err.contains("published none"), "{err}");
        assert!(err.contains("L1: presence mismatch"), "{err}");
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
        let human = v.to_human();
        assert!(human.starts_with("GV100 (Volta) ["), "{human}");
        assert!(human.ends_with(&format!("  violation: {}\n", v.violations[0])));
        // Reduced as a chase point, the same plateau fails with every value
        // it was judged on.
        let err = check_point(ArchPreset::VoltaGv100, LevelKind::DramFront, measured.dram)
            .expect_err("the point beats its floor");
        assert_eq!(
            err,
            format!(
                "GV100 (Volta) DRAM diverged from the published reference (published {0} cyc, \
                 analytic {0} cyc, measured {1:.1} cyc): {2}",
                row.dram, measured.dram, v.violations[0]
            )
        );
    }

    #[test]
    fn gt200_validates_against_the_published_row() {
        // End-to-end on the cheapest preset: DRAM-only machine, one chase.
        let measured = measure_row(ArchPreset::TeslaGt200).expect("chase runs");
        let (tolerance, rows) = validate_rows(&[(ArchPreset::TeslaGt200, measured)]);
        assert_eq!(tolerance, 2.0);
        assert!(rows[0].violations.is_empty(), "{}", rows[0].to_human());
        assert_eq!(rows[0].levels.len(), 1);
        assert_eq!(rows[0].levels[0].level, "DRAM");
        let dram = ArchPreset::TeslaGt200.published().dram;
        assert_eq!(rows[0].levels[0].analytic, dram);
        assert_eq!(rows[0].levels[0].measured, dram as f64);
        assert!(check_point(ArchPreset::TeslaGt200, LevelKind::DramFront, measured.dram).is_ok());
    }
}
