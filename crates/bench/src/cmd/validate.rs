//! Cross-validates architecture presets against the published reference
//! tables committed in `REFERENCE_latencies.json`.
//!
//! ```text
//! latency validate [--preset NAME]... [--out FILE] [--threads N]
//! ```
//!
//! For every requested preset (default: all registered generations) the
//! harness measures the pointer-chase plateau of each cache level and diffs
//! both that measurement and the description's analytic unloaded latency
//! against the published value, within the reference file's tolerance. Any
//! divergence — including a level appearing or disappearing — exits 1 with
//! the violation list; the CI preset matrix runs one preset per leg.
//!
//! `--out FILE` additionally writes the machine-readable record in the
//! committed `BENCH_validation.json` schema (every leaf exact-compared by
//! the bench regression harness).

use std::path::PathBuf;

use latency_bench::run_validation_bench;
use latency_core::cli::{or_exit, Cursor, UsageError};
use latency_core::ArchPreset;

pub const FLAGS: &str = "[--preset NAME]... [--out FILE] [--threads N]";

pub fn run(presets: &[ArchPreset], args: &mut Cursor) -> Result<(), UsageError> {
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(args.value("--out")?)),
            other => return Err(UsageError::unknown(other)),
        }
    }
    let presets = if presets.is_empty() {
        &ArchPreset::ALL[..]
    } else {
        presets
    };

    let bench = or_exit(run_validation_bench(presets), "validate failed");
    print!("{}", bench.to_human());
    if let Some(path) = out {
        or_exit(
            std::fs::write(&path, bench.json()),
            format_args!("failed to write {}", path.display()),
        );
        println!("wrote {}", path.display());
    }
    if let Err(violations) = bench.check() {
        eprint!("{violations}");
        eprintln!("FAIL: preset(s) diverged from the published reference tables");
        std::process::exit(1);
    }
    Ok(())
}
