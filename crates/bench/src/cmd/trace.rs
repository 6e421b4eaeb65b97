//! Emits a trace bundle — Perfetto-loadable Chrome trace JSON, raw event
//! JSONL, sampled-counter CSV, Figure-1/2 analyses and a metrics report —
//! for any builtin workload.
//!
//! ```text
//! latency trace --workload bfs
//! ```
//!
//! Open `trace-bundle/trace.json` at <https://ui.perfetto.dev> (or
//! `chrome://tracing`): one track per SM and memory partition, one async
//! span per traced request tiled into its eight pipeline stages, counter
//! tracks for queue depths / MSHR occupancy / row-hit rate.

use std::path::PathBuf;
use std::process::exit;

use gpu_sim::CheckpointPolicy;
use latency_bench::{run_traced, BfsExperiment, TraceBundle, TracedOutcome, TracedRun, Workload};
use latency_core::cli::{or_exit, Cursor, UsageError};
use latency_core::ArchPreset;

struct Args {
    preset: ArchPreset,
    workload: &'static Workload,
    graph: BfsExperiment,
    sms: Option<usize>,
    partitions: Option<usize>,
    out: PathBuf,
    sample: u64,
    max_events: usize,
    validate: bool,
    progress: bool,
    checkpoint_every: u64,
    checkpoint_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    kill_at: Option<u64>,
}

pub const FLAGS: &str = "[--preset NAME]\n\
     \x20      [--workload {workloads}]\n\
     \x20      [--nodes N] [--degree N] [--seed N] [--block-dim N]\n\
     \x20      [--sms N] [--partitions N] [--out DIR]\n\
     \x20      [--sample CYCLES] [--max-events N] [--validate] [--progress]\n\
     \x20      [--checkpoint-every CYCLES] [--checkpoint-dir DIR]\n\
     \x20      [--resume DIR] [--kill-at CYCLE]   (BFS only)";

fn parse_args(presets: &[ArchPreset], it: &mut Cursor) -> Result<Args, UsageError> {
    let mut args = Args {
        preset: presets.last().copied().unwrap_or(ArchPreset::FermiGf100),
        workload: Workload::bfs(),
        graph: BfsExperiment {
            nodes: 4096,
            ..BfsExperiment::default()
        },
        sms: None,
        partitions: None,
        out: PathBuf::from("trace-bundle"),
        sample: 64,
        max_events: 1 << 20,
        validate: false,
        progress: false,
        checkpoint_every: 0,
        checkpoint_dir: None,
        resume: None,
        kill_at: None,
    };
    while let Some(flag) = it.next_arg() {
        match flag.as_str() {
            "--workload" => {
                let name = it.value("--workload")?;
                args.workload = Workload::by_name(&name)
                    .ok_or_else(|| UsageError(format!("unknown workload: {name}")))?;
            }
            "--nodes" => args.graph.nodes = it.parsed("--nodes")?,
            "--degree" => args.graph.degree = it.parsed("--degree")?,
            "--seed" => args.graph.seed = it.parsed("--seed")?,
            "--block-dim" => args.graph.block_dim = it.parsed("--block-dim")?,
            "--sms" => args.sms = Some(it.parsed("--sms")?),
            "--partitions" => args.partitions = Some(it.parsed("--partitions")?),
            "--out" => args.out = PathBuf::from(it.value("--out")?),
            "--sample" => args.sample = it.parsed("--sample")?,
            "--max-events" => args.max_events = it.parsed("--max-events")?,
            "--validate" => args.validate = true,
            "--progress" => args.progress = true,
            "--checkpoint-every" => args.checkpoint_every = it.parsed("--checkpoint-every")?,
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(it.value("--checkpoint-dir")?));
            }
            "--resume" => args.resume = Some(PathBuf::from(it.value("--resume")?)),
            "--kill-at" => args.kill_at = Some(it.parsed("--kill-at")?),
            other => return Err(UsageError::unknown(other)),
        }
    }
    if !args.graph.is_runnable() {
        return Err(UsageError(
            "--nodes, --degree and --block-dim must be positive".into(),
        ));
    }
    build_cfg(&args)
        .validate()
        .map_err(|e| UsageError(e.to_string()))?;
    if !args.workload.resumable() && checkpointing_requested(&args) {
        return Err(UsageError(
            "--checkpoint-every/--resume/--kill-at are only supported for --workload bfs".into(),
        ));
    }
    Ok(args)
}

fn build_cfg(args: &Args) -> gpu_sim::GpuConfig {
    let mut cfg = args.preset.config();
    if let Some(n) = args.sms {
        cfg.num_sms = n;
    }
    if let Some(n) = args.partitions {
        cfg.num_partitions = n;
    }
    cfg.trace.enabled = true;
    cfg.trace.sample_interval = args.sample.max(1);
    cfg.trace.max_events = args.max_events;
    cfg
}

fn checkpointing_requested(args: &Args) -> bool {
    args.checkpoint_every > 0
        || args.checkpoint_dir.is_some()
        || args.resume.is_some()
        || args.kill_at.is_some()
}

/// Runs the workload under the checkpoint policy the flags spell (the null
/// policy when there are none): a fresh run, or with `--resume` the
/// continuation of one from its newest checkpoint. A killed run prints
/// where it stopped and exits 0 — rerun with `--resume DIR` to finish it;
/// the finished run is bit-identical to an uninterrupted one.
fn run_workload(args: &Args) -> TracedRun {
    let dir = args
        .checkpoint_dir
        .clone()
        .or_else(|| args.resume.clone())
        .unwrap_or_else(|| PathBuf::from("checkpoints"));
    let mut policy = CheckpointPolicy::new(args.checkpoint_every, dir.clone());
    policy.kill_at = args.kill_at;
    let what = if args.resume.is_some() {
        "resume"
    } else if checkpointing_requested(args) {
        "checkpointed run"
    } else {
        "trace run"
    };
    let outcome = run_traced(
        build_cfg(args),
        args.workload,
        &args.graph,
        &policy,
        args.resume.as_deref(),
    );
    match or_exit(outcome, format_args!("{what} failed")) {
        Some(TracedOutcome::Completed(run)) => *run,
        Some(TracedOutcome::Killed { at }) => {
            println!(
                "killed at cycle {at}; checkpoints in {} — rerun with --resume {0}",
                dir.display()
            );
            exit(0);
        }
        None => {
            let rdir = args
                .resume
                .as_ref()
                .expect("only a resume finds no checkpoint");
            eprintln!("no checkpoint found in {rdir:?}");
            exit(1);
        }
    }
}

pub fn run(presets: &[ArchPreset], it: &mut Cursor) -> Result<(), UsageError> {
    let args = parse_args(presets, it)?;
    // `--progress` needs the self-profiler's cycle counters, so it implies
    // profiling; enabling it never changes the simulation (`content_hash`
    // is pinned bit-identical either way).
    if args.progress {
        gpu_sim::profile::set_enabled(true);
    }
    let _heartbeat = args
        .progress
        .then(|| latency_bench::ProgressHeartbeat::start("trace"));
    let run = run_workload(&args);
    drop(_heartbeat);
    let cfg = build_cfg(&args);
    let bundle = TraceBundle::of(&run, &cfg);
    if args.validate {
        let doc = or_exit(
            gpu_trace::json::parse(&bundle.chrome_json()),
            "validation failed: trace.json does not parse",
        );
        let n = or_exit(gpu_trace::check_span_sums(&doc), "validation failed");
        println!("validated: {n} request spans tile their Timeline lifetimes");
    }
    or_exit(
        bundle.write(&args.out),
        format_args!("failed to write bundle to {:?}", args.out),
    );
    println!(
        "preset: {}   workload: {}   cycles: {}   events: {} ({} dropped)   samples: {}",
        args.preset.name(),
        args.workload.name,
        run.cycles,
        run.metrics.events_recorded,
        run.metrics.events_dropped,
        run.metrics.samples
    );
    println!(
        "content_hash: {:016x}   instructions: {}",
        run.content_hash, run.instructions
    );
    println!(
        "throughput: {:.0} simulated cycles/s over {:.2?} host time",
        run.metrics.cycles_per_second(run.cycles),
        run.metrics.wall_clock()
    );
    println!(
        "bundle written to {:?} — open trace.json at https://ui.perfetto.dev",
        args.out
    );
    Ok(())
}
