//! Static analysis over every built-in workload kernel.
//!
//! ```text
//! latency lint [--json] [--strict] [--deny <lint[,lint]|all>]
//!     [--sarif <path|->] [--cost] [--validate]
//! ```
//!
//! Runs the `latency-check` analyzer (CFG + dataflow + symbolic memory +
//! concurrency lints) over each kernel the experiment drivers launch and
//! prints one report per kernel. Output is deterministic (reports are
//! sorted and deduplicated), so CI can diff it byte-for-byte.
//!
//! - `--json` emits one JSON object per line instead of the human listing.
//! - `--strict` also fails on warnings.
//! - `--deny` fails when any *named* pass produces a warning- or
//!   error-severity finding (`all` denies every pass); advisory notes never
//!   fail the gate. Unknown lint names are a usage error.
//! - `--sarif` writes a SARIF 2.1.0 log to the given path (`-` = stdout).
//! - `--cost` prints the arch-aware static cost model for each kernel
//!   across the paper's Table-I presets.
//! - `--validate` runs the static-vs-dynamic differential harness
//!   (transaction counts, service levels, latency floors) over the Table-I
//!   preset x workload matrix.
//!
//! Exit status: 0 clean, 1 findings/violations, 2 usage.

use latency_check::{analyze, to_sarif, AnalysisConfig, Pass, Severity};
use latency_core::cli::{Cursor, UsageError};
use latency_core::ArchPreset;

pub const FLAGS: &str =
    "[--json] [--strict] [--deny <lint[,lint]|all>] [--sarif <path|->] [--cost] [--validate]";

/// Parses a `--deny` operand into the set of denied passes.
fn parse_deny(spec: &str) -> Result<Vec<Pass>, UsageError> {
    if spec == "all" {
        return Ok(Pass::ALL.to_vec());
    }
    let mut denied = Vec::new();
    for name in spec.split(',') {
        let pass = Pass::parse(name).ok_or_else(|| {
            UsageError(format!(
                "unknown lint '{name}' (known: {})",
                Pass::ALL.map(|p| p.name()).join(", ")
            ))
        })?;
        if !denied.contains(&pass) {
            denied.push(pass);
        }
    }
    Ok(denied)
}

/// Prints the per-preset static cost model for every builtin kernel.
fn print_costs() {
    for kernel in latency_bench::builtin_kernels() {
        for preset in ArchPreset::TABLE1 {
            let cost = latency_check::kernel_cost(&kernel, &preset.desc());
            print!("{}", cost.to_human());
        }
    }
}

/// Runs the differential validation matrix; returns `true` when every
/// cell and every floor held.
fn run_validation() -> bool {
    let mut ok = true;
    for preset in ArchPreset::TABLE1 {
        for workload in latency_bench::Workload::e4() {
            match latency_bench::validate_run(preset, workload) {
                Ok(report) => {
                    print!("{}", report.to_human());
                    ok &= report.ok();
                }
                Err(e) => {
                    eprintln!("{} x {:?}: simulation failed: {e}", workload.name, preset);
                    ok = false;
                }
            }
        }
        match latency_bench::validate_floor(preset) {
            Ok(report) => {
                print!("{}", report.to_human());
                ok &= report.ok();
            }
            Err(e) => {
                eprintln!("{preset:?}: floor measurement failed: {e}");
                ok = false;
            }
        }
    }
    ok
}

pub fn run(args: &mut Cursor) -> Result<(), UsageError> {
    let mut json = false;
    let mut strict = false;
    let mut cost = false;
    let mut validate = false;
    let mut denied: Vec<Pass> = Vec::new();
    let mut sarif_path: Option<String> = None;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => strict = true,
            "--cost" => cost = true,
            "--validate" => validate = true,
            "--deny" => denied = parse_deny(&args.value("--deny")?)?,
            "--sarif" => sarif_path = Some(args.value("--sarif")?),
            other => return Err(UsageError::unknown(other)),
        }
    }

    let config = AnalysisConfig::default();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut denied_hits = 0usize;
    let mut reports = Vec::new();
    for kernel in latency_bench::builtin_kernels() {
        let report = analyze(&kernel, &config);
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warning);
        denied_hits += report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warning && denied.contains(&d.pass))
            .count();
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.to_human());
        }
        reports.push(report);
    }
    if !json {
        println!("total: {errors} error(s), {warnings} warning(s)");
    }
    if let Some(path) = sarif_path {
        let sarif = to_sarif(&reports);
        if path == "-" {
            println!("{sarif}");
        } else if let Err(e) = std::fs::write(&path, sarif) {
            eprintln!("cannot write SARIF to '{path}': {e}");
            std::process::exit(2);
        }
    }
    if cost {
        print_costs();
    }
    let validated = !validate || run_validation();
    if errors > 0 || (strict && warnings > 0) || denied_hits > 0 || !validated {
        if denied_hits > 0 {
            eprintln!("{denied_hits} denied finding(s)");
        }
        std::process::exit(1);
    }
    Ok(())
}
