//! The benchmark suites and their pin check.
//!
//! ```text
//! latency bench [--check] [--update-baselines]
//!     [--suites serve,experiments]
//!     [--out DIR] [--baseline-dir DIR] [--inject-regression] [--progress]
//! ```
//!
//! Runs the two benchmarks from [`latency_bench::suite`] and
//! [`latency_bench::experiments`] — the serve daemon cold vs cache-hit, and
//! the whole experiment list, each distinct run once: every preset's
//! Table I chase points, held to the published reference, its §II grid and
//! inference, and every simulation the paper's figures and E4 read with its
//! own idle-coverage pins — under the host-side self-profiler. How long
//! each took goes to the `[bench]` stdout lines and to
//! `profile.json`/`profile.txt`; the fresh `BENCH_*.json` documents written
//! beside those in `--out` (default `bench-out/`) hold pins only.
//!
//! `--check` then compares each document against the committed baseline
//! in `--baseline-dir` (default `.`) under [`latency_bench::regression`]'s
//! one rule: every leaf must reproduce exactly, on any host. The
//! experiments suite also checks each row's block in the EXPERIMENTS.md
//! there against its fresh stdout. `--update-baselines` rewrites the
//! committed files, those blocks included, instead.
//! `--check --inject-regression` flips one pin per suite after measuring,
//! so CI can prove the check fails when it should; without `--check`, or
//! with `--update-baselines`, the flag is a usage error — it must never
//! reach an artifact anyone trusts.

use std::path::PathBuf;
use std::process::exit;

use latency_bench::{
    compare_json, run_serve_bench, splice_doc, Plan, ProgressHeartbeat, Record, EXPERIMENTS,
    SERVE_CLIENTS,
};
use latency_core::cli::{or_exit, Cursor, UsageError};
use latency_core::ArchPreset;

/// The serve suite's preset, pinned so results stay comparable with the
/// committed baseline: GF106, the §II measurement chip. The experiment list
/// names its own machines.
const SERVE_PRESET: ArchPreset = ArchPreset::FermiGf106;

struct Args {
    suites: Vec<String>,
    out: PathBuf,
    baseline_dir: PathBuf,
    check: bool,
    update: bool,
    inject: bool,
    progress: bool,
}

pub const FLAGS: &str = "[--check] [--update-baselines]\n\
     \x20      [--suites serve,experiments]\n\
     \x20      [--out DIR] [--baseline-dir DIR] [--inject-regression] [--progress]";

const SUITES: [&str; 2] = ["serve", "experiments"];

fn parse_args(args: &mut Cursor) -> Result<Args, UsageError> {
    let mut parsed = Args {
        suites: SUITES.map(str::to_string).to_vec(),
        out: PathBuf::from("bench-out"),
        baseline_dir: PathBuf::from("."),
        check: false,
        update: false,
        inject: false,
        progress: false,
    };
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--suites" => {
                let list = args.value("--suites")?;
                parsed.suites = list.split(',').map(str::to_string).collect();
                if let Some(bad) = parsed.suites.iter().find(|s| !SUITES.contains(&s.as_str())) {
                    return Err(UsageError(format!(
                        "unknown suite: {bad} ({})",
                        SUITES.join(", ")
                    )));
                }
            }
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

/// One finished suite: its artifact filename, rendered JSON and — for the
/// experiments — each row's stdout, the EXPERIMENTS.md blocks.
struct SuiteResult {
    name: &'static str,
    file: String,
    json: String,
    blocks: Vec<(&'static str, String)>,
}

impl SuiteResult {
    fn new(name: &'static str, json: String) -> Self {
        let (file, blocks) = (format!("BENCH_{name}.json"), Vec::new());
        SuiteResult {
            name,
            file,
            json,
            blocks,
        }
    }
}

fn run_suites(args: &Args) -> Vec<SuiteResult> {
    let mut results = Vec::new();
    for suite in &args.suites {
        match suite.as_str() {
            "serve" => {
                println!(
                    "[bench] serve: {SERVE_CLIENTS} clients, cold+cache-hit daemon on {}",
                    SERVE_PRESET.name()
                );
                let mut b = run_serve_bench(SERVE_PRESET, SERVE_CLIENTS, None);
                or_exit(b.check(), "FAIL: serve bench self-check");
                println!(
                    "[bench] serve: {} points, cold {:.3}s ({:.2} jobs/s, p95 {:.3}s), \
                     warm {:.3}s ({:.2} jobs/s, p95 {:.3}s), hash {}",
                    b.grid_points,
                    b.cold.wall_seconds,
                    b.cold.jobs_per_second(),
                    b.cold.percentile(0.95),
                    b.warm.wall_seconds,
                    b.warm.jobs_per_second(),
                    b.warm.percentile(0.95),
                    b.content_hash
                );
                if args.inject {
                    b.cold.deduped_jobs += 1;
                }
                results.push(SuiteResult::new("serve", b.json()));
            }
            "experiments" => {
                let plan = Plan::paper(&EXPERIMENTS);
                let (rows, runs) = (plan.rows.len(), plan.runs.len());
                println!("[bench] experiments: {rows} rows, {runs} distinct runs");
                let executed = or_exit(plan.execute(), "FAIL: experiments");
                let (mut records, walls): (Vec<_>, Vec<_>) = executed.into_iter().unzip();
                // A row is charged the runs it is the first to read.
                let mut charged = 0;
                for (row, runs) in &plan.rows {
                    let new = runs.iter().filter(|&&i| i >= charged);
                    let wall = new.clone().fold(0.0, |sum, &i| sum + walls[i]);
                    let (name, runs, new) = (row.name, runs.len(), new.count());
                    println!("[bench] experiments: {name:<22} {runs:>2} run(s), {new:>2} new, {wall:5.1}s");
                    charged += new;
                }
                let traced = records.iter_mut().find_map(|r| match r {
                    Record::Traced(run) => Some(run),
                    _ => None,
                });
                if let (true, Some(run)) = (args.inject, traced) {
                    run.cycles += 1;
                }
                let json = plan.pins_json(&records);
                let blocks = plan.render(&records);
                results.push(SuiteResult {
                    blocks,
                    ..SuiteResult::new("experiments", json)
                });
            }
            other => unreachable!("parse_args admitted unknown suite {other}"),
        }
    }
    results
}

fn write_file(path: &std::path::Path, contents: &str) {
    or_exit(
        std::fs::write(path, contents),
        format_args!("failed to write {}", path.display()),
    );
}

pub fn run(args: &mut Cursor) -> Result<(), UsageError> {
    let args = parse_args(args)?;
    // The whole suite runs under the self-profiler: profile.json is part of
    // the artifact set, and enabling it never changes simulation results.
    gpu_sim::profile::set_enabled(true);
    let heartbeat = args.progress.then(|| ProgressHeartbeat::start("bench"));
    let results = run_suites(&args);
    drop(heartbeat);

    or_exit(
        std::fs::create_dir_all(&args.out),
        format_args!("failed to create {}", args.out.display()),
    );
    for r in &results {
        write_file(&args.out.join(&r.file), &r.json);
    }
    let report = gpu_sim::profile::report();
    write_file(&args.out.join("profile.json"), &report.json());
    write_file(&args.out.join("profile.txt"), &report.text());
    println!(
        "[bench] artifacts in {}: {} + profile.json/profile.txt",
        args.out.display(),
        results
            .iter()
            .map(|r| r.file.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // The experiments suite also owns EXPERIMENTS.md's blocks: each is
    // one row's stdout.
    let mut fatal = false;
    let doc_path = args.baseline_dir.join("EXPERIMENTS.md");
    let with_blocks = results.iter().filter(|r| !r.blocks.is_empty());
    for r in with_blocks.filter(|_| args.check || args.update) {
        let doc = std::fs::read_to_string(&doc_path);
        let doc = or_exit(doc, format_args!("FAIL: read {}", doc_path.display()));
        let (fresh, stale) = or_exit(splice_doc(&doc, &r.blocks), "FAIL: experiments");
        if args.update {
            write_file(&doc_path, &fresh);
            println!("[bench] baseline updated: {}", doc_path.display());
        }
        for name in stale.iter().filter(|_| args.check) {
            let doc = doc_path.display();
            println!(
                "[bench] {} vs {doc}: FATAL block `{name}` differs from `latency {name}`",
                r.name
            );
            fatal = true;
        }
    }
    if args.update {
        for r in &results {
            write_file(&args.baseline_dir.join(&r.file), &r.json);
            println!(
                "[bench] baseline updated: {}",
                args.baseline_dir.join(&r.file).display()
            );
        }
        return Ok(());
    }
    if !args.check {
        return Ok(());
    }

    for r in &results {
        let path = args.baseline_dir.join(&r.file);
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "FAIL: {}: no baseline at {} ({e}); run --update-baselines and commit it",
                    r.name,
                    path.display()
                );
                fatal = true;
                continue;
            }
        };
        match compare_json(&baseline, &r.json) {
            Ok(findings) => {
                for f in &findings {
                    println!("[bench] {} vs {}: FATAL {f}", r.name, path.display());
                }
                fatal |= !findings.is_empty();
            }
            Err(e) => {
                eprintln!("FAIL: {}: {e}", r.name);
                fatal = true;
            }
        }
    }
    if fatal {
        eprintln!("FAIL: benchmark pin check failed");
        exit(1);
    }
    println!("[bench] check passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, UsageError> {
        parse_args(&mut Cursor::new(
            flags.iter().map(|f| f.to_string()).collect(),
        ))
    }

    #[test]
    fn inject_regression_needs_check_and_excludes_update() {
        let checked = parse(&["--check", "--inject-regression", "--suites", "serve"]);
        assert!(checked.is_ok_and(|a| a.inject && a.check && !a.update));
        // Alone it would write corrupt artifacts and exit 0; with
        // --update-baselines it would commit them.
        assert!(parse(&["--inject-regression"]).is_err());
        assert!(parse(&["--update-baselines", "--inject-regression"]).is_err());
        assert!(parse(&["--check", "--update-baselines", "--inject-regression"]).is_err());
    }
}
