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
use latency_bench::{
    resume_bfs_checkpointed, run_bfs_checkpointed, run_bfs_traced, run_workload_traced,
    BfsCheckpointOutcome, BfsExperiment, TraceBundle, TracedRun, Workload,
};
use latency_core::cli::{Cursor, UsageError};
use latency_core::ArchPreset;

struct Args {
    preset: ArchPreset,
    /// `None` is BFS (the only checkpointable workload).
    workload: Option<Workload>,
    nodes: u32,
    degree: u32,
    seed: u64,
    block_dim: u32,
    sms: Option<usize>,
    partitions: Option<usize>,
    out: PathBuf,
    sample: u64,
    max_events: usize,
    validate: bool,
    stable: bool,
    progress: bool,
    checkpoint_every: u64,
    checkpoint_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    kill_at: Option<u64>,
}

pub const FLAGS: &str = "[--preset NAME]\n\
     \x20      [--workload bfs|vecadd|matmul|reduce|spmv|stencil|histogram|transpose|scan]\n\
     \x20      [--nodes N] [--degree N] [--seed N] [--block-dim N]\n\
     \x20      [--sms N] [--partitions N] [--out DIR]\n\
     \x20      [--sample CYCLES] [--max-events N] [--validate]\n\
     \x20      [--stable] [--progress] [--tick-threads N]\n\
     \x20      [--checkpoint-every CYCLES] [--checkpoint-dir DIR]\n\
     \x20      [--resume DIR] [--kill-at CYCLE]   (BFS only)";

fn parse_args(presets: &[ArchPreset], it: &mut Cursor) -> Result<Args, UsageError> {
    let mut args = Args {
        preset: presets.last().copied().unwrap_or(ArchPreset::FermiGf100),
        workload: None,
        nodes: 4096,
        degree: 8,
        seed: 20150301,
        block_dim: 128,
        sms: None,
        partitions: None,
        out: PathBuf::from("trace-bundle"),
        sample: 64,
        max_events: 1 << 20,
        validate: false,
        stable: false,
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
                args.workload = match name.as_str() {
                    "bfs" => None,
                    _ => Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or_else(|| UsageError(format!("unknown workload: {name}")))?,
                    ),
                };
            }
            "--nodes" => args.nodes = it.parsed("--nodes")?,
            "--degree" => args.degree = it.parsed("--degree")?,
            "--seed" => args.seed = it.parsed("--seed")?,
            "--block-dim" => args.block_dim = it.parsed("--block-dim")?,
            "--sms" => args.sms = Some(it.parsed("--sms")?),
            "--partitions" => args.partitions = Some(it.parsed("--partitions")?),
            "--out" => args.out = PathBuf::from(it.value("--out")?),
            "--sample" => args.sample = it.parsed("--sample")?,
            "--max-events" => args.max_events = it.parsed("--max-events")?,
            "--validate" => args.validate = true,
            "--stable" => args.stable = true,
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
    if args.workload.is_some() && checkpointing_requested(&args) {
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

fn bfs_exp(args: &Args) -> BfsExperiment {
    BfsExperiment {
        nodes: args.nodes,
        degree: args.degree,
        seed: args.seed,
        block_dim: args.block_dim,
    }
}

fn run_plain(args: &Args) -> Result<TracedRun, gpu_sim::SimError> {
    let cfg = build_cfg(args);
    match args.workload {
        None => run_bfs_traced(cfg, &bfs_exp(args)),
        Some(workload) => run_workload_traced(cfg, workload),
    }
}

fn checkpointing_requested(args: &Args) -> bool {
    args.checkpoint_every > 0
        || args.checkpoint_dir.is_some()
        || args.resume.is_some()
        || args.kill_at.is_some()
}

/// The checkpoint/resume path (BFS only): either starts a fresh traversal
/// under the policy or continues one from the newest checkpoint. A killed
/// run prints where it stopped and exits 0 — rerun with `--resume DIR` to
/// finish it; the finished run is bit-identical to an uninterrupted one.
fn run_checkpointed(args: &Args) -> TracedRun {
    let exp = bfs_exp(args);
    let dir = args
        .checkpoint_dir
        .clone()
        .or_else(|| args.resume.clone())
        .unwrap_or_else(|| PathBuf::from("checkpoints"));
    let mut policy = CheckpointPolicy::new(args.checkpoint_every, dir.clone());
    policy.kill_at = args.kill_at;
    let outcome = if let Some(rdir) = &args.resume {
        match resume_bfs_checkpointed(rdir, &exp, &policy) {
            Ok(Some(o)) => o,
            Ok(None) => {
                eprintln!("no checkpoint found in {rdir:?}");
                exit(1);
            }
            Err(e) => {
                eprintln!("resume failed: {e}");
                exit(1);
            }
        }
    } else {
        match run_bfs_checkpointed(build_cfg(args), &exp, &policy) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("checkpointed run failed: {e}");
                exit(1);
            }
        }
    };
    match outcome {
        BfsCheckpointOutcome::Killed { at } => {
            println!(
                "killed at cycle {at}; checkpoints in {} — rerun with --resume {0}",
                dir.display()
            );
            exit(0);
        }
        BfsCheckpointOutcome::Completed(done) => done.traced,
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
    let run = if checkpointing_requested(&args) {
        run_checkpointed(&args)
    } else {
        match run_plain(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("trace run failed: {e}");
                exit(1);
            }
        }
    };
    drop(_heartbeat);
    let cfg = build_cfg(&args);
    // --stable: normalise the only wall-clock-derived field so metrics.txt
    // (and the throughput figure computed from it) is a pure function of
    // the simulation — `cycles_per_second` renders 0 by its zero-wall-clock
    // contract, and byte-identical output hashes byte-identically in CI.
    let mut metrics = run.metrics;
    if args.stable {
        metrics.host_nanos = 0;
    }
    let bundle = TraceBundle {
        requests: &run.requests,
        loads: &run.loads,
        trace: &run.trace,
        metrics: &metrics,
        cycles: run.cycles,
        content_hash: run.content_hash,
        num_sms: cfg.num_sms as u32,
        num_partitions: cfg.num_partitions as u32,
        stage_labels: latency_bench::stage_labels_for(&cfg),
        track_names: latency_bench::track_names_for(&cfg),
        profile: gpu_sim::profile::enabled().then(gpu_sim::profile::report),
    };
    if args.validate {
        let json = bundle.chrome_json();
        let doc = match gpu_trace::json::parse(&json) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("validation failed: trace.json does not parse: {e}");
                exit(1);
            }
        };
        match gpu_trace::check_span_sums(&doc) {
            Ok(n) => println!("validated: {n} request spans tile their Timeline lifetimes"),
            Err(e) => {
                eprintln!("validation failed: {e}");
                exit(1);
            }
        }
    }
    if let Err(e) = bundle.write(&args.out) {
        eprintln!("failed to write bundle to {:?}: {e}", args.out);
        exit(1);
    }
    println!(
        "preset: {}   workload: {}   cycles: {}   events: {} ({} dropped)   samples: {}",
        args.preset.name(),
        args.workload.map_or("bfs", Workload::name),
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
