//! The pin checker behind `latency bench --check`: a fresh `BENCH_*.json`
//! against the committed one, under one rule.
//!
//! Every leaf of a committed baseline is a pure function of the simulation
//! (names, grid shape, hashes, cycle / instruction / dedup / cache counts,
//! the validation rows), so every leaf must reproduce *exactly* on any
//! host. A leaf that differs, a path only the baseline has and a path only
//! the fresh run has are each a [`Finding`], and any finding fails the
//! check: the fix is the code change that explains it plus
//! `bench --update-baselines`, or a bug. Nothing is chosen by key name, so
//! a new pin is checked the moment a suite emits it.
//!
//! Host time is not in these documents (the `[bench]` stdout lines and
//! `bench-out/profile.{json,txt}` carry it, `benchmark/` judges it);
//! `tests/bench_pins.rs` keeps it from drifting back in.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use gpu_trace::json::{self, Value};

/// One divergence between baseline and fresh run, anchored to a flattened
/// JSON path (`runs[2].simulated_cycles`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Dotted path into the document.
    pub path: String,
    /// What diverged, with both values where both exist.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Maps every leaf of `v` to its path. An empty container is a leaf too,
/// so `[]` against `{}` (or against a populated array) still diverges.
fn flatten<'a>(v: &'a Value, path: String, out: &mut BTreeMap<String, &'a Value>) {
    match v {
        Value::Obj(pairs) if !pairs.is_empty() => {
            let sep = if path.is_empty() { "" } else { "." };
            for (k, child) in pairs {
                flatten(child, format!("{path}{sep}{k}"), out);
            }
        }
        Value::Arr(items) if !items.is_empty() => {
            for (i, child) in items.iter().enumerate() {
                flatten(child, format!("{path}[{i}]"), out);
            }
        }
        leaf => {
            out.insert(path, leaf);
        }
    }
}

fn show(leaf: &Value) -> String {
    match leaf {
        Value::Num(n) => n.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".to_string(),
        Value::Arr(_) => "[]".to_string(),
        Value::Obj(_) => "{}".to_string(),
    }
}

/// Parses both documents and reports every path whose leaf differs or that
/// only one side has, in path order. Empty means the run reproduced.
///
/// # Errors
///
/// Returns `Err` when either document fails to parse — a corrupt baseline
/// is not a divergence, it needs a human.
pub fn compare_json(baseline: &str, current: &str) -> Result<Vec<Finding>, String> {
    let b = json::parse(baseline).map_err(|e| format!("baseline does not parse: {e}"))?;
    let c = json::parse(current).map_err(|e| format!("current result does not parse: {e}"))?;
    let (mut old, mut new) = (BTreeMap::new(), BTreeMap::new());
    flatten(&b, String::new(), &mut old);
    flatten(&c, String::new(), &mut new);

    let paths: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    let mut findings = Vec::new();
    for path in paths {
        let message = match (old.get(path), new.get(path)) {
            (Some(was), Some(now)) if was == now => continue,
            (Some(was), Some(now)) => format!("baseline {} vs {}", show(was), show(now)),
            (Some(_), None) => "in the baseline, missing from this run".to_string(),
            (None, _) => "in this run, not in the baseline".to_string(),
        };
        findings.push(Finding {
            path: path.clone(),
            message,
        });
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "name": "tick", "preset": "GF100",
        "content_hash": "6bb54b1962cb6f45",
        "runs": [
            {"pass": 1, "simulated_cycles": 104548, "skipped_cycles": 26899},
            {"pass": 2, "simulated_cycles": 104548, "skipped_cycles": 26899}
        ]
    }"#;

    /// The paths `current` diverges from [`BASE`] on.
    fn diverging(current: &str) -> Vec<String> {
        let findings = compare_json(BASE, current).expect("parses");
        findings.into_iter().map(|f| f.path).collect()
    }

    #[test]
    fn identical_documents_produce_no_findings() {
        assert!(diverging(BASE).is_empty());
    }

    #[test]
    fn hash_divergence_is_fatal_even_when_timing_is_warn_only() {
        let cur = BASE.replace("6bb54b1962cb6f45", "6bb54b1962cb6f44");
        assert_eq!(diverging(&cur), ["content_hash"]);
    }

    #[test]
    fn cycle_divergence_is_fatal() {
        let cur = BASE.replacen("104548", "104549", 1);
        assert_eq!(diverging(&cur), ["runs[0].simulated_cycles"]);
    }

    #[test]
    fn missing_metric_is_schema_divergence() {
        let cur = BASE.replace("\"content_hash\": \"6bb54b1962cb6f45\",", "");
        assert_eq!(diverging(&cur), ["content_hash"]);
        // An emptied array is a leaf of its own: six leaves missing, `runs`
        // and the six `was` leaves extra.
        let cur = BASE.replace("\"runs\": [", "\"runs\": [], \"was\": [");
        assert_eq!(diverging(&cur).len(), 1 + 2 * 3 + 2 * 3);
    }

    #[test]
    fn extra_metric_is_schema_divergence() {
        let cur = BASE.replace(
            "\"name\": \"tick\",",
            "\"name\": \"tick\", \"wall_seconds\": 1.0,",
        );
        assert_eq!(diverging(&cur), ["wall_seconds"]);
    }

    #[test]
    fn type_change_is_a_divergence() {
        let cur = BASE.replacen("104548", "\"104548\"", 1);
        let findings = compare_json(BASE, &cur).expect("parses");
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].to_string(),
            "runs[0].simulated_cycles: baseline 104548 vs \"104548\""
        );
        // A leaf that became an object shows up as one missing and its
        // children extra.
        let cur = BASE.replacen("104548", "{\"cycles\": 104548}", 1);
        assert_eq!(
            diverging(&cur),
            [
                "runs[0].simulated_cycles",
                "runs[0].simulated_cycles.cycles"
            ]
        );
    }

    #[test]
    fn corrupt_baseline_is_an_error_not_a_regression() {
        assert!(compare_json("{not json", BASE).is_err());
        assert!(compare_json(BASE, "").is_err());
    }
}
