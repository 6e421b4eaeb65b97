//! `all`: both passes of every workload, each in a child process of its
//! own so peak RSS, the allocator counters and the process-global profiler
//! and chase-cache switches start clean every time.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use gpu_trace::json::{self, Value};

use crate::schema::WORKLOADS;

pub struct AllArgs {
    pub seed: u64,
    /// Repetitions; run `i` uses seed `seed + i`.
    pub runs: u64,
    /// Passed through to the passes when given.
    pub seconds: Option<String>,
    pub quick: bool,
    pub out: PathBuf,
}

/// One `result-*.json` file read back.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub quick: bool,
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    pub digest: String,
    pub traced_wall_s: f64,
    /// `(name, value)` in file order.
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

fn parse_record(text: &str) -> Option<Record> {
    let doc = json::parse(text).ok()?;
    let flag = |key: &str| match doc.get(key) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    };
    let num = |key: &str| doc.get(key).and_then(Value::as_num);
    let Value::Obj(metrics) = doc.get("metrics")? else {
        return None;
    };
    Some(Record {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: num("seed")? as u64,
        trace: flag("trace")?,
        quick: flag("quick")?,
        correct: flag("correct")?,
        attempted: num("attempted")?,
        failed: num("failed")?,
        digest: doc.get("sim_digest")?.as_str()?.to_string(),
        traced_wall_s: num("traced_wall_s")?,
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
            .collect(),
    })
}

/// Every result file in `dir`, sorted by file name.
///
/// # Errors
///
/// An unreadable directory or a result file that does not parse.
pub fn read_results(dir: &Path) -> Result<Vec<Record>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .ok()
                .and_then(|text| parse_record(&text))
                .ok_or_else(|| format!("{} is not a result file", p.display()))
        })
        .collect()
}

/// Runs every pass and reports what the result files say.
///
/// # Errors
///
/// A child that could not be started or printed no result.
pub fn all(args: &AllArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    for run in 0..args.runs {
        let seed = args.seed + run;
        for (workload, _) in WORKLOADS {
            for trace in ["0", "1"] {
                println!("== {workload} seed {seed} trace {trace}");
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &seed.to_string()])
                    .arg("--out")
                    .arg(&args.out);
                if let Some(seconds) = &args.seconds {
                    child.args(["--seconds", seconds]);
                }
                if args.quick {
                    child.arg("--quick");
                }
                let output = child
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("starting {workload} pass: {e}"))?;
                if !output.status.success() {
                    return Err(format!(
                        "{workload} trace {trace} exited with {}",
                        output.status
                    ));
                }
                // Everything but the driver's result line, which the result
                // file repeats.
                let text = String::from_utf8_lossy(&output.stdout);
                let lines: Vec<&str> = text.lines().collect();
                for line in &lines[..lines.len().saturating_sub(1)] {
                    println!("{line}");
                }
            }
        }
    }

    let records = read_results(&args.out)?;
    let mut clean = true;
    println!("== summary ({})", args.out.display());
    for untraced in records.iter().filter(|r| !r.trace) {
        let failed_share = untraced.failed / untraced.attempted;
        clean &= untraced.correct;
        // The overhead the traced pass measured inside itself is the
        // per-layer metric; this is the same question asked across the two
        // passes, as a cross-check.
        let two_pass = records
            .iter()
            .find(|r| r.trace && r.workload == untraced.workload && r.seed == untraced.seed)
            .map(|traced| {
                clean &= traced.correct;
                traced.traced_wall_s / untraced.metric("wall_s").unwrap_or(f64::NAN) - 1.0
            });
        println!(
            "{:<16} seed {:<10} failed_ops_share {failed_share:.4}  sim_digest {}  \
             two-pass tracing overhead {}",
            untraced.workload,
            untraced.seed,
            untraced.digest,
            two_pass.map_or("n/a".to_string(), |s| format!("{:+.1}%", s * 100.0)),
        );
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
