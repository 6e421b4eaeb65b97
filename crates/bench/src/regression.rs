//! Baseline comparison for the bench harness: fresh `BENCH_*.json` results
//! against the committed ones, with per-metric rules.
//!
//! Metrics fall into three classes, chosen by leaf key name:
//!
//! - **Determinism** (`content_hash`, `simulated_cycles`, `skipped_cycles`,
//!   `instructions`, cache hit/miss counts, grid shape, names): must
//!   reproduce *exactly*.
//!   Any divergence is [`Severity::Fatal`] on every host — a changed hash
//!   means the simulation itself changed, which no amount of CI noise
//!   explains.
//! - **Timing** (`wall_seconds`, `cycles_per_second`, `speedup_vs_serial`,
//!   `warm_hit_rate`, the sweep-cache `speedup`): compared against a
//!   per-metric threshold, regressions only (improvements never flag).
//!   Fatal by default, downgraded to [`Severity::Warn`] when
//!   `timing_warn_only` is set — `latency bench` sets it on a single-CPU
//!   host, and it is forced whenever the two documents record different
//!   `host_cpus` (the timings are then not comparable at all).
//! - **Informational** (`host_cpus`, the profiler's per-stage `stages` /
//!   `stage_breakdown` nanoseconds): never compared numerically; presence
//!   differences are worth a warning, value differences are expected.
//!
//! A key present in only one document is otherwise a fatal schema
//! divergence: the fix is either the code change that motivated it plus
//! `bench --update-baselines`, or a bug.

use gpu_trace::json::{self, Value};

/// Per-metric regression thresholds (fractional, regressions only).
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// `wall_seconds` may grow by this fraction before flagging (0.5 =
    /// tolerate 50% slower — shared CI runners are noisy).
    pub wall_slowdown: f64,
    /// `cycles_per_second` may drop by this fraction.
    pub throughput_drop: f64,
    /// `speedup_vs_serial` may drop by this fraction.
    pub speedup_drop: f64,
    /// `warm_hit_rate` may drop by this absolute amount (it should be 1.0;
    /// any real drop means the sweep cache broke).
    pub hit_rate_drop: f64,
    /// The sweep-cache `speedup` is too machine-dependent for a ratio test;
    /// instead the fresh value must stay above this absolute floor.
    pub cache_speedup_floor: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            wall_slowdown: 0.50,
            throughput_drop: 0.35,
            speedup_drop: 0.35,
            hit_rate_drop: 0.02,
            cache_speedup_floor: 2.0,
        }
    }
}

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context worth printing, never a failure.
    Info,
    /// A regression signal on a host whose timings are not trustworthy.
    Warn,
    /// Determinism divergence, schema divergence, or a timing regression
    /// on a comparable host. Fails the check.
    Fatal,
}

/// One comparison finding, anchored to a flattened JSON path.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Dotted path into the document (`runs[2].wall_seconds`).
    pub path: String,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable explanation with both values.
    pub message: String,
}

/// The outcome of comparing one benchmark document pair.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// All findings, in document order.
    pub findings: Vec<Finding>,
}

impl Comparison {
    /// True if any finding is fatal.
    pub fn fatal(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Fatal)
    }

    /// Number of warn-level findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// One line per finding, `FATAL`/`warn`/`info` prefixed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Info => "info ",
                Severity::Warn => "warn ",
                Severity::Fatal => "FATAL",
            };
            out.push_str(&format!("{tag} {}: {}\n", f.path, f.message));
        }
        out
    }
}

/// Parses both documents and compares them under the rules above.
///
/// # Errors
///
/// Returns `Err` when either document fails to parse — a corrupt baseline
/// is not a "regression", it needs a human.
pub fn compare_json(
    baseline: &str,
    current: &str,
    thresholds: &Thresholds,
    timing_warn_only: bool,
) -> Result<Comparison, String> {
    let b = json::parse(baseline).map_err(|e| format!("baseline does not parse: {e}"))?;
    let c = json::parse(current).map_err(|e| format!("current result does not parse: {e}"))?;
    Ok(compare_values(&b, &c, thresholds, timing_warn_only))
}

/// Flattened JSON leaf.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Num(f64),
    Text(String),
    Bool(bool),
    Null,
}

fn flatten(v: &Value, prefix: &str, out: &mut Vec<(String, Leaf)>) {
    match v {
        Value::Obj(pairs) => {
            for (k, child) in pairs {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(child, &path, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(child, &format!("{prefix}[{i}]"), out);
            }
        }
        Value::Num(n) => out.push((prefix.to_string(), Leaf::Num(*n))),
        Value::Str(s) => out.push((prefix.to_string(), Leaf::Text(s.clone()))),
        Value::Bool(b) => out.push((prefix.to_string(), Leaf::Bool(*b))),
        Value::Null => out.push((prefix.to_string(), Leaf::Null)),
    }
}

/// The leaf key a path ends in: `runs[2].wall_seconds` → `wall_seconds`.
fn leaf_key(path: &str) -> &str {
    let seg = path.rsplit('.').next().unwrap_or(path);
    match seg.find('[') {
        Some(i) => &seg[..i],
        None => seg,
    }
}

/// The comparison rule for one leaf, chosen by key name.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// Exact equality, fatal on divergence.
    Exact,
    /// `new > old * (1 + tol)` flags (bigger is worse).
    Slower(f64),
    /// `new < old * (1 - tol)` flags (smaller is worse).
    LowerRatio(f64),
    /// `new < old - tol` flags (absolute drop).
    LowerAbs(f64),
    /// `new < floor` flags regardless of the old value.
    FloorAbs(f64),
    /// Never compared numerically.
    Info,
}

fn rule_for(path: &str, t: &Thresholds) -> Rule {
    // Per-stage host-time attribution varies run to run by design.
    if path.contains("stages.") || path.contains("stage_breakdown") {
        return Rule::Info;
    }
    match leaf_key(path) {
        "content_hash" | "name" | "preset" | "workload" => Rule::Exact,
        "simulated_cycles" | "skipped_cycles" | "cycles" | "instructions" | "grid_points"
        | "skipped" | "num_sms" | "tick_threads" | "nodes" | "degree" | "hits" | "misses"
        | "stores" => Rule::Exact,
        // Serve-suite determinism: dedup and execution counts are
        // simulation-pure and must reproduce exactly on any host.
        "clients" | "executed_points" | "deduped_jobs" | "deduped_points" | "recovered_jobs" => {
            Rule::Exact
        }
        // Validation-suite determinism: published reference values, the
        // analytic model and the chase plateaus are all pure functions of
        // committed data and the deterministic simulation.
        "token" | "source" | "level" | "reference" | "analytic" | "measured"
        | "tolerance_percent" => Rule::Exact,
        "wall_seconds" | "total_wall_seconds" => Rule::Slower(t.wall_slowdown),
        "cycles_per_second" => Rule::LowerRatio(t.throughput_drop),
        "speedup_vs_serial" => Rule::LowerRatio(t.speedup_drop),
        "warm_hit_rate" => Rule::LowerAbs(t.hit_rate_drop),
        "speedup" => Rule::FloorAbs(t.cache_speedup_floor),
        // Serve-suite throughput and latency percentiles: thresholded like
        // every other wall-clock metric (warn-only on 1-CPU hosts).
        "jobs_per_second" => Rule::LowerRatio(t.throughput_drop),
        "job_seconds_p50" | "job_seconds_p95" => Rule::Slower(t.wall_slowdown),
        _ => Rule::Info,
    }
}

/// How a committed baseline field is treated, for auditing suite schemas:
/// everything a suite emits should be either simulation-pure (`Exact`) or
/// an explicitly thresholded wall-clock metric (`Timing`) — a field landing
/// in `Informational` is invisible to `--check` and needs either a rule
/// here or a reason to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Must reproduce exactly on any host (simulation-pure).
    Exact,
    /// Wall-clock-derived, threshold-compared, warn-only on 1-CPU hosts.
    Timing,
    /// Never compared numerically.
    Informational,
}

/// Classifies one flattened leaf path under the default thresholds.
#[must_use]
pub fn metric_class(path: &str) -> MetricClass {
    match rule_for(path, &Thresholds::default()) {
        Rule::Exact => MetricClass::Exact,
        Rule::Info => MetricClass::Informational,
        _ => MetricClass::Timing,
    }
}

/// Flattens a JSON document and classifies every leaf, so suite tests can
/// assert their whole committed schema is covered by `--check`.
///
/// # Errors
///
/// Propagates the JSON parse error.
pub fn classify_document(doc: &str) -> Result<Vec<(String, MetricClass)>, String> {
    let v = json::parse(doc)?;
    let mut leaves = Vec::new();
    flatten(&v, "", &mut leaves);
    Ok(leaves
        .into_iter()
        .map(|(path, _)| {
            let class = metric_class(&path);
            (path, class)
        })
        .collect())
}

fn leaf_display(leaf: &Leaf) -> String {
    match leaf {
        Leaf::Num(n) => format!("{n}"),
        Leaf::Text(s) => format!("\"{s}\""),
        Leaf::Bool(b) => format!("{b}"),
        Leaf::Null => "null".to_string(),
    }
}

/// Compares two parsed documents. See the module docs for the rules;
/// `timing_warn_only` downgrades timing regressions from fatal to warn and
/// is forced on when the documents record different `host_cpus`.
pub fn compare_values(
    baseline: &Value,
    current: &Value,
    thresholds: &Thresholds,
    mut timing_warn_only: bool,
) -> Comparison {
    let mut bleaves = Vec::new();
    let mut cleaves = Vec::new();
    flatten(baseline, "", &mut bleaves);
    flatten(current, "", &mut cleaves);
    let cmap: std::collections::BTreeMap<&str, &Leaf> =
        cleaves.iter().map(|(p, l)| (p.as_str(), l)).collect();
    let bmap: std::collections::BTreeMap<&str, &Leaf> =
        bleaves.iter().map(|(p, l)| (p.as_str(), l)).collect();

    let mut cmp = Comparison::default();
    if let (Some(Leaf::Num(hb)), Some(Leaf::Num(hc))) = (
        bmap.get("host_cpus").copied(),
        cmap.get("host_cpus").copied(),
    ) {
        if hb != hc {
            timing_warn_only = true;
            cmp.findings.push(Finding {
                path: "host_cpus".to_string(),
                severity: Severity::Info,
                message: format!(
                    "baseline measured on {hb} CPUs, this host has {hc}: \
                     timing deltas downgraded to warnings"
                ),
            });
        }
    }
    let timing_severity = if timing_warn_only {
        Severity::Warn
    } else {
        Severity::Fatal
    };

    for (path, old) in &bleaves {
        let rule = rule_for(path, thresholds);
        let Some(new) = cmap.get(path.as_str()).copied() else {
            cmp.findings.push(Finding {
                path: path.clone(),
                severity: presence_severity(path),
                message: "present in baseline but missing from this run \
                          (schema divergence; --update-baselines if intentional)"
                    .to_string(),
            });
            continue;
        };
        if rule == Rule::Info {
            continue;
        }
        // Numeric rules on non-numeric leaves (and vice versa) mean the
        // schema changed shape, which Exact catches and ratio rules treat
        // as fatal too.
        let finding = match (rule, old, new) {
            (Rule::Exact, a, b) => (a != b).then(|| {
                (
                    Severity::Fatal,
                    format!(
                        "must reproduce exactly: baseline {} vs {}",
                        leaf_display(a),
                        leaf_display(b)
                    ),
                )
            }),
            (Rule::Slower(tol), Leaf::Num(a), Leaf::Num(b)) => (*b > a * (1.0 + tol)).then(|| {
                (
                    timing_severity,
                    format!(
                        "{b:.4} is {:.0}% slower than baseline {a:.4}",
                        (b / a - 1.0) * 100.0
                    ),
                )
            }),
            (Rule::LowerRatio(tol), Leaf::Num(a), Leaf::Num(b)) => {
                (*b < a * (1.0 - tol)).then(|| {
                    (
                        timing_severity,
                        format!(
                            "{b:.4} is {:.0}% below baseline {a:.4}",
                            (1.0 - b / a) * 100.0
                        ),
                    )
                })
            }
            (Rule::LowerAbs(tol), Leaf::Num(a), Leaf::Num(b)) => (*b < a - tol).then(|| {
                (
                    timing_severity,
                    format!("{b:.4} dropped from baseline {a:.4}"),
                )
            }),
            (Rule::FloorAbs(floor), Leaf::Num(_), Leaf::Num(b)) => (*b < floor).then(|| {
                (
                    timing_severity,
                    format!("{b:.4} fell below the absolute floor {floor:.1}"),
                )
            }),
            // Shape change under a numeric rule.
            (_, a, b) => Some((
                Severity::Fatal,
                format!(
                    "type changed: baseline {} vs {}",
                    leaf_display(a),
                    leaf_display(b)
                ),
            )),
        };
        if let Some((severity, message)) = finding {
            cmp.findings.push(Finding {
                path: path.clone(),
                severity,
                message,
            });
        }
    }
    for (path, _) in &cleaves {
        if bmap.contains_key(path.as_str()) {
            continue;
        }
        cmp.findings.push(Finding {
            path: path.clone(),
            severity: presence_severity(path),
            message: "present in this run but not in the baseline \
                      (schema divergence; --update-baselines if intentional)"
                .to_string(),
        });
    }
    cmp
}

/// Severity when a path exists in only one document. The schemas are
/// fixed, so any asymmetry is fatal — except the profiler's optional
/// stage breakdowns, which honestly disappear when profiling is off.
fn presence_severity(path: &str) -> Severity {
    if path.contains("stages.") || path.contains("stage_breakdown") {
        Severity::Warn
    } else {
        Severity::Fatal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "name": "tick", "preset": "GF100", "host_cpus": 4,
        "content_hash": "6bb54b1962cb6f45",
        "runs": [
            {"tick_threads": 1, "wall_seconds": 1.0, "simulated_cycles": 104548,
             "cycles_per_second": 104548, "speedup_vs_serial": 1.0,
             "stages": {"tick_sms": 900}},
            {"tick_threads": 2, "wall_seconds": 0.5, "simulated_cycles": 104548,
             "cycles_per_second": 209096, "speedup_vs_serial": 2.0,
             "stages": {"tick_sms": 700}}
        ]
    }"#;

    fn check(current: &str, warn_only: bool) -> Comparison {
        compare_json(BASE, current, &Thresholds::default(), warn_only).expect("parses")
    }

    #[test]
    fn identical_documents_produce_no_findings() {
        let cmp = check(BASE, false);
        assert!(cmp.findings.is_empty(), "{}", cmp.render());
    }

    #[test]
    fn stage_nanos_differences_are_ignored() {
        let cur = BASE.replace("\"tick_sms\": 900", "\"tick_sms\": 123456");
        let cmp = check(&cur, false);
        assert!(cmp.findings.is_empty(), "{}", cmp.render());
    }

    #[test]
    fn hash_divergence_is_fatal_even_when_timing_is_warn_only() {
        let cur = BASE.replace("6bb54b1962cb6f45", "0000000000000000");
        let cmp = check(&cur, true);
        assert!(cmp.fatal(), "{}", cmp.render());
    }

    #[test]
    fn cycle_divergence_is_fatal() {
        let cur = BASE.replace(
            "\"simulated_cycles\": 104548,",
            "\"simulated_cycles\": 104549,",
        );
        assert!(check(&cur, true).fatal());
    }

    #[test]
    fn timing_regression_severity_tracks_host_comparability() {
        // 1.0s -> 2.0s is beyond the 50% tolerance.
        let cur = BASE.replace("\"wall_seconds\": 1.0", "\"wall_seconds\": 2.0");
        let fatal = check(&cur, false);
        assert!(fatal.fatal(), "{}", fatal.render());
        let warned = check(&cur, true);
        assert!(!warned.fatal(), "{}", warned.render());
        assert_eq!(warned.warnings(), 1);
    }

    #[test]
    fn timing_within_tolerance_is_silent() {
        let cur = BASE.replace("\"wall_seconds\": 1.0", "\"wall_seconds\": 1.3");
        let cmp = check(&cur, false);
        assert!(cmp.findings.is_empty(), "{}", cmp.render());
    }

    #[test]
    fn host_cpu_drift_downgrades_timing_to_warn() {
        let cur = BASE
            .replace("\"host_cpus\": 4", "\"host_cpus\": 1")
            .replace("\"wall_seconds\": 1.0", "\"wall_seconds\": 10.0");
        let cmp = check(&cur, false);
        assert!(!cmp.fatal(), "{}", cmp.render());
        assert!(cmp.warnings() >= 1);
    }

    #[test]
    fn missing_metric_is_schema_divergence() {
        let cur = BASE.replace("\"content_hash\": \"6bb54b1962cb6f45\",", "");
        assert!(check(&cur, true).fatal());
    }

    #[test]
    fn extra_metric_is_schema_divergence() {
        let cur = BASE.replace(
            "\"name\": \"tick\",",
            "\"name\": \"tick\", \"extra_cycles\": 1,",
        );
        assert!(check(&cur, true).fatal());
    }

    #[test]
    fn cache_speedup_floor_is_absolute() {
        let base = r#"{"name": "sweep", "speedup": 45601.0, "warm_hit_rate": 1.0}"#;
        let fast = r#"{"name": "sweep", "speedup": 3.5, "warm_hit_rate": 1.0}"#;
        let slow = r#"{"name": "sweep", "speedup": 1.2, "warm_hit_rate": 1.0}"#;
        let t = Thresholds::default();
        assert!(
            !compare_json(base, fast, &t, false).unwrap().fatal(),
            "a huge ratio drop is fine while the cache still clearly wins"
        );
        assert!(compare_json(base, slow, &t, false).unwrap().fatal());
    }

    #[test]
    fn hit_rate_drop_flags() {
        let base = r#"{"warm_hit_rate": 1.0}"#;
        let bad = r#"{"warm_hit_rate": 0.5}"#;
        assert!(compare_json(base, bad, &Thresholds::default(), false)
            .unwrap()
            .fatal());
    }

    #[test]
    fn corrupt_baseline_is_an_error_not_a_regression() {
        assert!(compare_json("{not json", BASE, &Thresholds::default(), false).is_err());
    }
}
