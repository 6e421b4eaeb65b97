//! `compare A B`: judges the results in directory B (the change) against
//! those in A (the parent) by the rule the benchmark's bounds are written
//! for. Each directory holds any number of runs.
//!
//! Per workload and end-to-end metric it prints both medians with their
//! quartiles, the bound and a verdict:
//!
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `better`: B's median is better by more than A's own interquartile
//!   spread;
//! - `unresolved`: either side's spread exceeds the bound, so a difference
//!   that size could hide — unless every run of B reads better than every
//!   run of A, which is `better`;
//! - `same` otherwise.
//!
//! Then the per-layer deltas (counts that moved are flagged) and whether
//! each `sim_digest` held. Exit code 1 on any `worse` or a higher share of
//! failed ops, 2 for unusable input.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

use crate::orchestrate::{read_results, Record};
use crate::schema::{is_count, Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one end-to-end metric from its values on each side.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    // Positive = B is worse, as a share of A's median.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = sign * (med_b - med_a) / med_a.abs();
    let spread_a = spread(a).unwrap_or(0.0);
    if spread_a > bound || spread(b).unwrap_or(0.0) > bound {
        let every_b_beats_every_a = b
            .iter()
            .all(|&vb| a.iter().all(|&va| sign * (vb - va) < 0.0));
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread_a && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side<'a>(all: &'a [Record], workload: &str, trace: bool) -> Vec<&'a Record> {
    all.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .collect()
}

fn values(records: &[&Record], metric: &str) -> Vec<f64> {
    records.iter().filter_map(|r| r.metric(metric)).collect()
}

fn with_quartiles(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.5} [{:.5} .. {:.5}]", median(v), q1, q3),
        None => format!("{:.5} [n={}]", median(v), v.len()),
    }
}

fn failed_share(records: &[&Record]) -> f64 {
    let attempted: f64 = records.iter().map(|r| r.attempted).sum();
    let failed: f64 = records.iter().map(|r| r.failed).sum();
    if attempted == 0.0 {
        0.0
    } else {
        failed / attempted
    }
}

/// Prints the comparison and returns the exit code described in the module
/// docs.
///
/// # Errors
///
/// Unreadable directories, `--quick` results, or a workload missing from
/// one side.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<ExitCode, String> {
    let (all_a, all_b) = (read_results(dir_a)?, read_results(dir_b)?);
    if all_a.iter().chain(&all_b).any(|r| r.quick) {
        return Err("refusing to compare --quick results: they measure nothing".to_string());
    }
    let mut regressed = false;
    for (workload, _) in WORKLOADS {
        let (a, b) = (side(&all_a, workload, false), side(&all_b, workload, false));
        if a.is_empty() || b.is_empty() {
            return Err(format!("{workload}: both sides need an untraced result"));
        }
        println!(
            "== {workload}: end to end ({} vs {} runs)",
            a.len(),
            b.len()
        );
        println!(
            "{:<20} {:>6} {:>40} {:>40} {:>8}  verdict",
            "metric", "bound", "A median [q1 .. q3]", "B median [q1 .. q3]", "B vs A"
        );
        for metric in &END_TO_END {
            let (va, vb) = (values(&a, metric.name), values(&b, metric.name));
            let verdict = judge(metric, &va, &vb);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{:<20} {:>5.0}% {:>40} {:>40} {:>+7.1}%  {}",
                metric.name,
                metric.bound.unwrap_or(0.0) * 100.0,
                with_quartiles(&va),
                with_quartiles(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (failed_share(&a), failed_share(&b));
        println!("failed_ops_share     A {fa:.4}  B {fb:.4}");
        if fb > fa {
            println!("  WORSE: more operations fail in B");
            regressed = true;
        }

        // The digest is a function of the seed; compare like with like.
        let digests = |records: &[&Record]| -> BTreeSet<(u64, String)> {
            records.iter().map(|r| (r.seed, r.digest.clone())).collect()
        };
        let (da, db) = (digests(&a), digests(&b));
        let shared_seeds: BTreeSet<u64> = da
            .iter()
            .map(|d| d.0)
            .filter(|s| db.iter().any(|d| d.0 == *s))
            .collect();
        let moved = shared_seeds.iter().any(|s| {
            da.iter()
                .filter(|d| d.0 == *s)
                .ne(db.iter().filter(|d| d.0 == *s))
        });
        match (shared_seeds.is_empty(), moved) {
            (true, _) => println!("sim_digest           no seed in common, not comparable"),
            (false, false) => println!(
                "sim_digest           identical on {} seed(s)",
                shared_seeds.len()
            ),
            (false, true) => println!(
                "sim_digest           CHANGED: B simulates something else than A on the same seed \
                 (tier-1 goldens decide whether that is intended)"
            ),
        }

        let (ta, tb) = (side(&all_a, workload, true), side(&all_b, workload, true));
        if ta.is_empty() || tb.is_empty() {
            println!("(no traced results on both sides: per-layer table skipped)");
            continue;
        }
        println!("-- {workload}: per layer, medians");
        for metric in &PER_LAYER {
            let (ma, mb) = (
                median(&values(&ta, metric.name)),
                median(&values(&tb, metric.name)),
            );
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            let flag = if is_count(metric) && ma != mb && !shared_seeds.is_empty() {
                "  COUNT MOVED"
            } else {
                ""
            };
            println!(
                "{:<36} {ma:>16.4} {mb:>16.4} {:>+8.1}% {}{flag}",
                metric.name,
                (mb / ma - 1.0) * 100.0,
                metric.unit
            );
        }
    }
    Ok(if regressed {
        println!("verdict: WORSE");
        ExitCode::FAILURE
    } else {
        println!("verdict: no end-to-end metric is worse");
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10% bound, whatever the schema's bounds are.
    fn metric(better: Better) -> Metric {
        Metric {
            name: "test",
            unit: "s",
            better,
            bound: Some(0.10),
        }
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (-2..=2).map(|i| center + step * f64::from(i)).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = around(10.0, 0.05);
        assert_eq!(
            judge(&metric(Better::Lower), &a, &around(10.02, 0.05)),
            Verdict::Same
        );
        assert_eq!(
            judge(&metric(Better::Lower), &a, &around(11.5, 0.05)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(Better::Lower), &a, &around(9.0, 0.05)),
            Verdict::Better
        );
        // Inside the bound but outside A's spread the other way: still same.
        assert_eq!(
            judge(&metric(Better::Lower), &a, &around(10.5, 0.05)),
            Verdict::Same
        );
        // Higher-is-better metrics flip.
        assert_eq!(
            judge(&metric(Better::Higher), &a, &around(8.5, 0.05)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(Better::Higher), &a, &around(11.0, 0.05)),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = around(10.0, 1.5);
        assert_eq!(
            judge(&metric(Better::Lower), &noisy, &around(10.0, 0.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&metric(Better::Lower), &around(10.0, 0.05), &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&metric(Better::Lower), &noisy, &around(5.0, 0.05)),
            Verdict::Better
        );
    }

    #[test]
    fn single_runs_are_judged_on_the_bound_alone() {
        assert_eq!(
            judge(&metric(Better::Lower), &[10.0], &[10.5]),
            Verdict::Same
        );
        assert_eq!(
            judge(&metric(Better::Lower), &[10.0], &[12.0]),
            Verdict::Worse
        );
    }
}
