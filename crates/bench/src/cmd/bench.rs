//! Unified benchmark and perf-regression harness.
//!
//! ```text
//! latency bench [--check] [--update-baselines]
//!     [--suites sweep,tick,workloads,serve,validation]
//!     [--out DIR] [--baseline-dir DIR] [--inject-regression] [--progress]
//! ```
//!
//! Runs the five benchmarks from [`latency_bench::suite`] and
//! [`latency_bench::reference`] — the sweep cold/warm cache comparison, the
//! tick-parallelism scaling record, end-to-end workload throughput (one
//! section per measured generation, paper-era and modern), the serve
//! daemon's cold vs cache-hit job throughput, and the published-reference
//! validation of every registered preset — under the host-side
//! self-profiler, and writes the fresh `BENCH_*.json` results plus
//! `profile.json`/`profile.txt` to `--out` (default `bench-out/`) as CI
//! artifacts.
//!
//! `--check` then compares each result against the committed baseline in
//! `--baseline-dir` (default `.`) under [`latency_bench::regression`]'s
//! rules: anything derived from the simulation alone (content hashes,
//! cycle/instruction counts, grid shape) must reproduce exactly and fails
//! the run on any host; wall-clock metrics are thresholded and downgraded
//! to warnings on a single-CPU host or when the baseline was measured on a
//! different CPU count. `--update-baselines` rewrites the committed files
//! instead. `--inject-regression` deliberately corrupts the fresh results
//! (hash flip + 100× slowdown) after measuring, so CI can prove the
//! harness actually fails when it should.

use std::path::PathBuf;
use std::process::exit;

use latency_bench::{
    compare_json, run_serve_bench, run_sweep_bench, run_tick_bench, run_validation_bench,
    run_workload_bench, workloads_json, ProgressHeartbeat, Thresholds, Workload, SERVE_CLIENTS,
};
use latency_core::cli::{or_exit, Cursor, UsageError};
use latency_core::ArchPreset;

/// Presets are pinned per suite so results stay comparable with the
/// committed baselines: the sweep baseline is GF106 (the §II measurement
/// chip), tick scaling uses the full GF100, and workload throughput runs
/// one section per generation — the paper-era GF100 plus the sectored,
/// sliced GV100 — so the modern timing model's hashes are pinned too.
const SWEEP_PRESET: ArchPreset = ArchPreset::FermiGf106;
const FULL_PRESET: ArchPreset = ArchPreset::FermiGf100;
const MODERN_PRESET: ArchPreset = ArchPreset::VoltaGv100;
const TICK_THREADS: [usize; 4] = [1, 2, 4, 8];

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
     \x20      [--suites sweep,tick,workloads,serve,validation]\n\
     \x20      [--out DIR] [--baseline-dir DIR] [--inject-regression] [--progress]";

const SUITES: [&str; 5] = ["sweep", "tick", "workloads", "serve", "validation"];

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
    Ok(parsed)
}

/// One finished suite: its artifact filename and rendered JSON.
struct SuiteResult {
    name: &'static str,
    file: String,
    json: String,
}

impl SuiteResult {
    fn new(name: &'static str, json: String) -> Self {
        let file = format!("BENCH_{name}.json");
        SuiteResult { name, file, json }
    }
}

fn run_suites(args: &Args) -> Vec<SuiteResult> {
    let mut results = Vec::new();
    for suite in &args.suites {
        match suite.as_str() {
            "sweep" => {
                println!("[bench] sweep: cold+warm grid on {}", SWEEP_PRESET.name());
                let mut b = run_sweep_bench(SWEEP_PRESET, None);
                or_exit(b.check(), "FAIL: sweep bench self-check");
                if args.inject {
                    b.simulated_cycles += 1;
                    b.warm_wall_seconds *= 100.0;
                }
                println!(
                    "[bench] sweep: {} points, cold {:.3}s, warm {:.3}s, hit rate {:.1}%",
                    b.grid_points,
                    b.cold_wall_seconds,
                    b.warm_wall_seconds,
                    b.warm_hit_rate() * 100.0
                );
                results.push(SuiteResult::new("sweep", b.json()));
            }
            "tick" => {
                println!(
                    "[bench] tick: bfs scaling on {} at {:?} threads",
                    FULL_PRESET.name(),
                    TICK_THREADS
                );
                let mut b = run_tick_bench(FULL_PRESET, 4096, 8, &TICK_THREADS);
                or_exit(b.check(), "FAIL: tick bench self-check");
                for m in &b.runs {
                    println!(
                        "[bench] tick: threads={:<2} wall={:.3}s cycles={} hash={:016x}",
                        m.tick_threads, m.wall_seconds, m.cycles, m.content_hash
                    );
                }
                if args.inject {
                    for r in &mut b.runs {
                        r.content_hash ^= 0xdead_beef;
                        r.wall_seconds *= 100.0;
                    }
                }
                results.push(SuiteResult::new("tick", b.json()));
            }
            "workloads" => {
                let mut sections = Vec::new();
                for preset in [FULL_PRESET, MODERN_PRESET] {
                    println!(
                        "[bench] workloads: {} end-to-end runs on {}",
                        Workload::e4().len(),
                        preset.name()
                    );
                    let what = format!("FAIL: workload bench ({})", preset.name());
                    let mut b = or_exit(run_workload_bench(preset, Workload::e4()), &what);
                    or_exit(b.check(), &what);
                    for r in &b.runs {
                        println!(
                            "[bench] workloads: {:<10} cycles={:<8} wall={:.3}s hash={:016x}",
                            r.workload.name, r.cycles, r.wall_seconds, r.content_hash
                        );
                    }
                    if args.inject {
                        for r in &mut b.runs {
                            r.content_hash ^= 0xdead_beef;
                            r.wall_seconds *= 100.0;
                        }
                    }
                    sections.push(b);
                }
                results.push(SuiteResult::new("workloads", workloads_json(&sections)));
            }
            "serve" => {
                println!(
                    "[bench] serve: {SERVE_CLIENTS} clients, cold+cache-hit daemon on {}",
                    SWEEP_PRESET.name()
                );
                let mut b = run_serve_bench(SWEEP_PRESET, SERVE_CLIENTS, None);
                or_exit(b.check(), "FAIL: serve bench self-check");
                println!(
                    "[bench] serve: {} points, cold {:.3}s ({:.2} jobs/s), \
                     warm {:.3}s ({:.2} jobs/s), hash {}",
                    b.grid_points,
                    b.cold.wall_seconds,
                    b.cold.jobs_per_second(),
                    b.warm.wall_seconds,
                    b.warm.jobs_per_second(),
                    b.content_hash
                );
                if args.inject {
                    b.content_hash = format!("{:016x}", 0xdead_beef_u64);
                    b.cold.wall_seconds *= 100.0;
                    b.warm.wall_seconds *= 100.0;
                }
                results.push(SuiteResult::new("serve", b.json()));
            }
            "validation" => {
                println!(
                    "[bench] validation: {} presets vs published reference tables",
                    ArchPreset::ALL.len()
                );
                let mut b = or_exit(
                    run_validation_bench(&ArchPreset::ALL),
                    "FAIL: validation bench",
                );
                if let Err(e) = b.check() {
                    eprintln!("FAIL: validation bench self-check:\n{e}");
                    exit(1);
                }
                for row in &b.rows {
                    println!(
                        "[bench] validation: {:<16} {} level(s) within tolerance",
                        row.preset.token(),
                        row.levels.len()
                    );
                }
                if args.inject {
                    if let Some(l) = b.rows.iter_mut().find_map(|r| r.levels.first_mut()) {
                        l.measured += 100.0;
                    }
                }
                results.push(SuiteResult::new("validation", b.json()));
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

    // Timing regressions cannot be trusted on a single-CPU host (the tick
    // pool has nothing to scale onto); determinism divergence always can.
    let warn_only = latency_bench::host_cpus() == 1;
    let mut fatal = false;
    let mut warnings = 0usize;
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
        match compare_json(&baseline, &r.json, &Thresholds::default(), warn_only) {
            Ok(cmp) => {
                if !cmp.findings.is_empty() {
                    print!(
                        "[bench] {} vs {}:\n{}",
                        r.name,
                        path.display(),
                        cmp.render()
                    );
                }
                warnings += cmp.warnings();
                if cmp.fatal() {
                    fatal = true;
                }
            }
            Err(e) => {
                eprintln!("FAIL: {}: {e}", r.name);
                fatal = true;
            }
        }
    }
    if fatal {
        eprintln!("FAIL: benchmark regression check failed");
        exit(1);
    }
    println!("[bench] check passed ({warnings} timing warnings)");
    Ok(())
}
