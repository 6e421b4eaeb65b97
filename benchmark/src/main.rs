//! The repository's benchmark (see `BENCHMARK.json` and `README.md` beside
//! this package): four workloads, each measured end to end with tracing
//! off and layer by layer with tracing on.
//!
//! ```text
//! gpu-latency-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! gpu-latency-benchmark all [--seed N] [--runs K] [--seconds S] [--quick] [--out DIR]
//! gpu-latency-benchmark compare DIR_A DIR_B
//! ```
//!
//! The first form is one pass of one workload, the form the driver calls;
//! its last stdout line is the result object. `all` runs both passes of
//! every workload, each in a child process of its own. `compare` judges two
//! directories of results against the bounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

mod alloc;
mod compare;
mod orchestrate;
mod probes;
mod runner;
mod schema;
mod spans;
mod stats;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where results and traces go unless `--out` says otherwise; ignored by
/// git like the build directory.
const DEFAULT_OUT: &str = ".bench_out";
/// Seed of the committed baseline.
const DEFAULT_SEED: u64 = 20150301;

const USAGE: &str = "usage:
  benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  benchmark/run.sh all [--seed N] [--runs K] [--seconds S] [--quick] [--out DIR]
  benchmark/run.sh compare DIR_A DIR_B
workloads: chase-sweep bfs-dynamic kernels-modern serve-warm";

/// `--key value` pairs and bare `--quick`, nothing else.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = if key == "quick" {
            "1"
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .as_str()
        };
        out.insert(key, value);
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
    }
}

fn known(flags: &BTreeMap<&str, &str>, allowed: &[&str]) -> Result<(), String> {
    match flags.keys().find(|k| !allowed.contains(k)) {
        Some(k) => Err(format!("unknown flag --{k}")),
        None => Ok(()),
    }
}

fn pass(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    known(
        &f,
        &["workload", "seed", "seconds", "trace", "quick", "out"],
    )?;
    let quick = f.contains_key("quick");
    let args = runner::PassArgs {
        workload: f
            .get("workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: number(&f, "seed", DEFAULT_SEED)?,
        seconds: number(&f, "seconds", if quick { 0.0 } else { runner::RUN_SECONDS })?,
        trace: match *f.get("trace").unwrap_or(&"0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
        quick,
        out: PathBuf::from(f.get("out").unwrap_or(&DEFAULT_OUT)),
    };
    let result = runner::run_pass(&args)?;
    for (metric, value) in &result.metrics {
        println!("{:<36} {value:>18.6} {}", metric.name, metric.unit);
    }
    let walls: Vec<String> = result
        .round_walls
        .iter()
        .map(|s| format!("{s:.2}"))
        .collect();
    println!(
        "{} seed {} trace {}: {} ops attempted, {} failed, sim_digest {:016x}, \
         rounds as measured [{}] s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        result.attempted,
        result.failed,
        result.digest,
        walls.join(" ")
    );
    // A pass that measured something exits 0 even when an op failed: the
    // verdict is the `correct` and `failed` fields of the result line.
    println!("{}", result.result_line());
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("all") => {
            let f = flags(&args[1..])?;
            known(&f, &["seed", "runs", "seconds", "quick", "out"])?;
            orchestrate::all(&orchestrate::AllArgs {
                seed: number(&f, "seed", DEFAULT_SEED)?,
                runs: number(&f, "runs", 1)?,
                seconds: f.get("seconds").map(|s| s.to_string()),
                quick: f.contains_key("quick"),
                out: PathBuf::from(f.get("out").unwrap_or(&DEFAULT_OUT)),
            })
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result directories".to_string()),
        },
        Some(first) if first.starts_with("--") => pass(&args),
        _ => Err("no command".to_string()),
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|message| {
        eprintln!("error: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
