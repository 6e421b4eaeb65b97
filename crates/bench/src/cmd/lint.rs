//! Static analysis over every built-in workload kernel.
//!
//! ```text
//! latency lint [--json] [--strict] [--deny <lint[,lint]|all>]
//!     [--sarif <path|->] [--cost]
//! ```
//!
//! Runs the `latency-check` analyzer (CFG + dataflow + symbolic memory +
//! concurrency lints) over each kernel the experiment drivers launch and
//! prints one report per kernel. Output is deterministic (reports are
//! sorted and deduplicated), so CI can diff it byte-for-byte. It runs no
//! simulation: the analyzer's claims are checked against every traced run
//! of the experiment list as it is reduced, and `latency static_vs_dynamic`
//! prints those verdicts.
//!
//! - `--json` emits one JSON object per line instead of the human listing.
//! - `--strict` also fails on warnings.
//! - `--deny` fails when any *named* pass produces a warning- or
//!   error-severity finding (`all` denies every pass); advisory notes never
//!   fail the gate. Repeated, it denies the union. Unknown lint names are a
//!   usage error.
//! - `--sarif` writes a SARIF 2.1.0 log to the given path (`-` = stdout).
//! - `--cost` prints the arch-aware static cost model for each kernel
//!   across the paper's Table-I presets.
//!
//! Exit status: 0 clean, 1 findings or a failed SARIF write, 2 usage.

use latency_check::{analyze, to_sarif, AnalysisConfig, Pass, Severity};
use latency_core::cli::{or_exit, Cursor, UsageError};
use latency_core::ArchPreset;

pub const FLAGS: &str =
    "[--json] [--strict] [--deny <lint[,lint]|all>] [--sarif <path|->] [--cost]";

/// Adds the passes a `--deny` operand names to `denied`, each once.
fn parse_deny(spec: &str, denied: &mut Vec<Pass>) -> Result<(), UsageError> {
    let names: Vec<&str> = match spec {
        "all" => Pass::ALL.map(Pass::name).to_vec(),
        _ => spec.split(',').collect(),
    };
    for name in names {
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
    Ok(())
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

pub fn run(args: &mut Cursor) -> Result<(), UsageError> {
    let (mut json, mut strict, mut cost) = (false, false, false);
    let mut denied: Vec<Pass> = Vec::new();
    let mut sarif_path: Option<String> = None;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => strict = true,
            "--cost" => cost = true,
            "--deny" => parse_deny(&args.value("--deny")?, &mut denied)?,
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
        } else {
            let written = std::fs::write(&path, sarif);
            or_exit(written, format_args!("cannot write SARIF to '{path}'"));
        }
    }
    if cost {
        print_costs();
    }
    if errors > 0 || (strict && warnings > 0) || denied_hits > 0 {
        if denied_hits > 0 {
            eprintln!("{denied_hits} denied finding(s)");
        }
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_deny_takes_the_union() {
        let mut denied = Vec::new();
        parse_deny("shared-race", &mut denied).unwrap();
        parse_deny("coalescing,shared-race", &mut denied).unwrap();
        assert_eq!(denied, [Pass::SharedRace, Pass::Coalescing]);
        assert!(parse_deny("nonsense", &mut denied).is_err());
    }
}
