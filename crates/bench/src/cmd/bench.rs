//! The pin check of the experiment list.
//!
//! ```text
//! latency bench [--check] [--update-baselines]
//!     [--out DIR] [--baseline-dir DIR] [--inject-regression] [--progress]
//! ```
//!
//! Runs the whole experiment list of [`latency_bench::experiments`], each
//! distinct run once: every preset's Table I chase points, held to the
//! published reference, its §II grid and inference, and every simulation
//! the paper's figures and E4 read with its own idle-coverage pins. How
//! long each row took goes to the `[bench]` stdout lines, the last of them
//! the process's peak resident set; the fresh `BENCH_experiments.json`
//! written to `--out` (default `bench-out/`) holds pins only. Under
//! `LATENCY_PROFILE=1` the host-side self-profiler runs too, and its
//! `profile.json`/`profile.txt` are written beside it.
//!
//! `--check` then compares the document against the committed baseline
//! in `--baseline-dir` (default `.`) under [`latency_bench::regression`]'s
//! one rule: every leaf must reproduce exactly, on any host. It also checks
//! each row's block in the EXPERIMENTS.md there against its fresh stdout.
//! `--update-baselines` rewrites the committed file, those blocks
//! included, instead.
//! `--check --inject-regression` flips one pin after measuring, so CI can
//! prove the check fails when it should; without `--check`, or with
//! `--update-baselines`, the flag is a usage error — it must never reach an
//! artifact anyone trusts.

use std::path::PathBuf;
use std::process::exit;

use latency_bench::{compare_json, splice_doc, Plan, ProgressHeartbeat, Record, EXPERIMENTS};
use latency_core::cli::{or_exit, print, Cursor, UsageError};

/// The pin file, in `--out` and in `--baseline-dir`.
const PINS: &str = "BENCH_experiments.json";

struct Args {
    out: PathBuf,
    baseline_dir: PathBuf,
    check: bool,
    update: bool,
    inject: bool,
    progress: bool,
}

pub const FLAGS: &str = "[--check] [--update-baselines]\n\
     \x20      [--out DIR] [--baseline-dir DIR] [--inject-regression] [--progress]";

fn parse_args(args: &mut Cursor) -> Result<Args, UsageError> {
    let mut parsed = Args {
        out: PathBuf::from("bench-out"),
        baseline_dir: PathBuf::from("."),
        check: false,
        update: false,
        inject: false,
        progress: false,
    };
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--out" => parsed.out = PathBuf::from(args.value("--out")?),
            "--baseline-dir" => parsed.baseline_dir = PathBuf::from(args.value("--baseline-dir")?),
            "--check" => parsed.check = true,
            "--update-baselines" => parsed.update = true,
            "--inject-regression" => parsed.inject = true,
            "--progress" => parsed.progress = true,
            other => return Err(UsageError::unknown(other)),
        }
    }
    if parsed.inject && (parsed.update || !parsed.check) {
        return Err(UsageError(
            "--inject-regression corrupts the results: it needs --check and excludes \
             --update-baselines"
                .into(),
        ));
    }
    Ok(parsed)
}

/// Runs the experiment list: its pins document and each row's stdout, the
/// EXPERIMENTS.md blocks.
fn run_experiments(inject: bool) -> (String, Vec<(&'static str, String)>) {
    let plan = Plan::paper(&EXPERIMENTS);
    let (rows, runs) = (plan.rows.len(), plan.runs.len());
    print(format_args!(
        "[bench] experiments: {rows} rows, {runs} distinct runs\n"
    ));
    let executed = or_exit(plan.execute(), "FAIL: experiments");
    let (mut records, walls): (Vec<_>, Vec<_>) = executed.into_iter().unzip();
    // A row is charged the runs it is the first to read.
    let mut charged = 0;
    for (row, runs) in &plan.rows {
        let new = runs.iter().filter(|&&i| i >= charged);
        let wall = new.clone().fold(0.0, |sum, &i| sum + walls[i]);
        let (name, runs, new) = (row.name, runs.len(), new.count());
        print(format_args!(
            "[bench] experiments: {name:<22} {runs:>2} run(s), {new:>2} new, {wall:5.1}s\n"
        ));
        charged += new;
    }
    let traced = records.iter_mut().find_map(|r| match r {
        Record::Traced(run) => Some(run),
        _ => None,
    });
    if let (true, Some(run)) = (inject, traced) {
        run.cycles += 1;
    }
    (plan.pins_json(&records), plan.render(&records))
}

fn write_file(path: &std::path::Path, contents: &str) {
    or_exit(
        std::fs::write(path, contents),
        format_args!("failed to write {}", path.display()),
    );
}

pub fn run(args: &mut Cursor) -> Result<(), UsageError> {
    let args = parse_args(args)?;
    let heartbeat = args.progress.then(|| ProgressHeartbeat::start("bench"));
    let (json, blocks) = run_experiments(args.inject);
    drop(heartbeat);

    or_exit(
        std::fs::create_dir_all(&args.out),
        format_args!("failed to create {}", args.out.display()),
    );
    write_file(&args.out.join(PINS), &json);
    // The profile is opt-in (LATENCY_PROFILE=1): it observes host time
    // only, and speed claims belong to benchmark/.
    let mut artifacts = PINS.to_string();
    if gpu_sim::profile::enabled() {
        let report = gpu_sim::profile::report();
        write_file(&args.out.join("profile.json"), &report.json());
        write_file(&args.out.join("profile.txt"), &report.text());
        artifacts += " + profile.json/profile.txt";
    }
    print(format_args!(
        "[bench] artifacts in {}: {artifacts}\n",
        args.out.display()
    ));
    let passed = !(args.check || args.update) || check_or_update(&args, &json, &blocks);
    crate::print_peak_rss("[bench] ");
    if !passed {
        eprintln!("FAIL: benchmark pin check failed");
        exit(1);
    }
    Ok(())
}

/// `--update-baselines` rewrites the committed pins and EXPERIMENTS.md
/// blocks; `--check` compares against them, printing each finding.
/// Returns `false` when the check found a difference.
fn check_or_update(args: &Args, json: &str, blocks: &[(&'static str, String)]) -> bool {
    // The list also owns EXPERIMENTS.md's blocks: each is one row's stdout.
    let doc_path = args.baseline_dir.join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&doc_path);
    let doc = or_exit(doc, format_args!("FAIL: read {}", doc_path.display()));
    let (fresh, stale) = or_exit(splice_doc(&doc, blocks), "FAIL: experiments");
    let path = args.baseline_dir.join(PINS);
    if args.update {
        write_file(&doc_path, &fresh);
        write_file(&path, json);
        for updated in [&doc_path, &path] {
            print(format_args!(
                "[bench] baseline updated: {}\n",
                updated.display()
            ));
        }
        return true;
    }

    let mut fatal = !stale.is_empty();
    for name in &stale {
        let doc = doc_path.display();
        print(format_args!(
            "[bench] experiments vs {doc}: FATAL block `{name}` differs from `latency {name}`\n"
        ));
    }
    let baseline = std::fs::read_to_string(&path).map_err(|e| {
        let path = path.display();
        format!("no baseline at {path} ({e}); run --update-baselines and commit it")
    });
    match baseline.and_then(|baseline| compare_json(&baseline, json)) {
        Ok(findings) => {
            for f in &findings {
                print(format_args!(
                    "[bench] experiments vs {}: FATAL {f}\n",
                    path.display()
                ));
            }
            fatal |= !findings.is_empty();
        }
        Err(e) => {
            eprintln!("FAIL: experiments: {e}");
            fatal = true;
        }
    }
    if !fatal {
        print("[bench] check passed\n");
    }
    !fatal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, UsageError> {
        parse_args(&mut Cursor::new(
            flags.iter().map(|f| f.to_string()).collect(),
        ))
    }

    /// The last `[bench]` line reads `crate::peak_rss_kib`.
    #[test]
    fn peak_rss_is_read_from_vm_hwm() {
        use crate::peak_rss_kib;
        let status = "Name:\tlatency\nVmPeak:\t  901234 kB\nVmHWM:\t  422400 kB\n";
        assert_eq!(peak_rss_kib(status), Some(422_400));
        assert_eq!(peak_rss_kib("Name:\tlatency\n"), None);
        assert_eq!(peak_rss_kib("VmHWM:\t  garbled\n"), None);
    }

    #[test]
    fn inject_regression_needs_check_and_excludes_update() {
        let checked = parse(&["--check", "--inject-regression"]);
        assert!(checked.is_ok_and(|a| a.inject && a.check && !a.update));
        // Alone it would write corrupt artifacts and exit 0; with
        // --update-baselines it would commit them.
        assert!(parse(&["--inject-regression"]).is_err());
        assert!(parse(&["--update-baselines", "--inject-regression"]).is_err());
        assert!(parse(&["--check", "--update-baselines", "--inject-regression"]).is_err());
    }
}
