//! Idle-cycle skipping is invisible: a launch driven by [`Gpu::run`] (which
//! jumps the clock over quiescent intervals) must leave a simulator
//! bit-identical to one stepped through the same cycles with
//! [`Gpu::tick`] (which never skips) — same summary, per-SM stats, latency
//! traces, event stream, counter samples and final snapshot. No switch
//! selects the skipping, so `tick()` itself is the reference.
//!
//! The second half pins the three cycles where the run loop itself acts
//! and a jump must stop short: the kill switch, every checkpoint multiple,
//! and the `max_cycles` deadline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use gpu_isa::Launch;
use gpu_sim::{
    CheckpointPolicy, CounterSample, Gpu, GpuConfig, RunOutcome, RunSummary, SimError, SmStats,
    TraceEvent, Violation,
};
use gpu_snapshot::Decoder;
use gpu_types::Addr;
use gpu_workloads::bfs::{
    build_bfs_mask_kernel1, build_bfs_mask_kernel2, read_costs, upload_graph_mask, UNVISITED,
};
use gpu_workloads::{reduce, Graph};
use latency_core::chase::{build_chase_kernel, write_chain, write_shuffled_chain, ChasePattern};
use latency_core::{ArchPreset, ChaseParams};

const MAX_CYCLES: u64 = 50_000_000;

/// How a scenario waits for the launch it just made: `run()` on the GPU
/// under test, a counted `tick()` loop on the reference.
type Drain<'a> = &'a mut dyn FnMut(&mut Gpu);

/// Sets a workload up on `gpu` and drives every launch through `drain`.
type Scenario = dyn Fn(&mut Gpu, Drain<'_>);

// ---- scenarios -------------------------------------------------------------

/// Uploads `params`' chain and launches the §II microbenchmark on it: one
/// thread, `iters` unrolled iterations. Returns the ring's base and the
/// sink the final pointer lands in.
fn launch_chase(gpu: &mut Gpu, params: ChaseParams, iters: u64) -> (Addr, Addr) {
    let align = gpu.config().line_size;
    let base = gpu.alloc(params.footprint, align);
    match params.pattern {
        ChasePattern::Sequential => write_chain(gpu, base, params.count(), params.stride),
        ChasePattern::Shuffled { seed } => {
            write_shuffled_chain(gpu, base, params.count(), params.stride, seed);
        }
    }
    let sink = gpu.alloc(8, align);
    gpu.launch(
        build_chase_kernel(&params),
        Launch::new(1, 1, vec![base.get(), iters, sink.get()]),
    )
    .expect("chase launches");
    (base, sink)
}

fn chase(params: ChaseParams, iters: u64) -> impl Fn(&mut Gpu, Drain<'_>) {
    move |gpu, drain| {
        let (base, sink) = launch_chase(gpu, params, iters);
        drain(gpu);
        let last = gpu.device().read_u64(sink);
        assert!(
            (base.get()..base.get() + params.footprint).contains(&last),
            "chase escaped its ring"
        );
    }
}

/// Rodinia mask BFS: two launches per level, the host reading a flag in
/// between — the multi-launch case, where each run starts mid-clock.
fn mask_bfs(gpu: &mut Gpu, drain: Drain<'_>) {
    let graph = Graph::uniform_random(96, 4, 20150301);
    let dev = upload_graph_mask(gpu, &graph);
    let n = dev.num_nodes;
    let mut cost = vec![UNVISITED; n as usize];
    cost[0] = 0;
    let mut flags = vec![0u32; n as usize];
    gpu.device_mut().write_u32_slice(dev.cost, &cost);
    gpu.device_mut().write_u32_slice(dev.updating, &flags);
    flags[0] = 1;
    gpu.device_mut().write_u32_slice(dev.mask, &flags);
    gpu.device_mut().write_u32_slice(dev.visited, &flags);

    let block_dim = 32;
    let grid = n.div_ceil(block_dim);
    let addrs = |a: &[Addr]| a.iter().map(|x| x.get()).collect::<Vec<u64>>();
    loop {
        gpu.device_mut().write_u32(dev.more, 0);
        let mut p1 = addrs(&[
            dev.row_offsets,
            dev.cols,
            dev.cost,
            dev.mask,
            dev.updating,
            dev.visited,
        ]);
        p1.push(u64::from(n));
        gpu.launch(build_bfs_mask_kernel1(), Launch::new(grid, block_dim, p1))
            .expect("expand launches");
        drain(gpu);
        let mut p2 = addrs(&[dev.mask, dev.updating, dev.visited, dev.more]);
        p2.push(u64::from(n));
        gpu.launch(build_bfs_mask_kernel2(), Launch::new(grid, block_dim, p2))
            .expect("commit launches");
        drain(gpu);
        if gpu.device().read_u32(dev.more) == 0 {
            break;
        }
    }
    assert_eq!(read_costs(gpu, &dev), graph.bfs_levels(0), "BFS answer");
}

/// Shared-memory tree reduction in eight-warp CTAs: while the last warp's
/// load is in flight the other seven sit at the barrier, so skipped
/// intervals are credited to the `Barrier` stall reason too.
fn barrier_reduce(gpu: &mut Gpu, drain: Drain<'_>) {
    let dev = reduce::setup(gpu, 512);
    gpu.device_mut().write_u32(dev.output, 0);
    gpu.launch(
        reduce::build_reduce_kernel(256),
        Launch::new(2, 256, vec![dev.input.get(), dev.output.get(), dev.n]),
    )
    .expect("reduce launches");
    drain(gpu);
    let expected: u32 = (0..512u32).map(|i| i % 97).sum();
    assert_eq!(gpu.device().read_u32(dev.output), expected, "block sums");
}

// ---- observation -----------------------------------------------------------

/// The snapshot payload with its one wall-clock field zeroed. The payload
/// opens with the configuration, then `now`, `outstanding`, `host_nanos`.
fn state_bytes(gpu: &Gpu) -> Vec<u8> {
    let framed = gpu.snapshot();
    let mut payload = framed[16..framed.len() - 8].to_vec();
    let mut d = Decoder::open(&framed).expect("own snapshot opens");
    GpuConfig::decode(&mut d).expect("own snapshot decodes");
    let host_nanos_at = payload.len() - d.remaining() + 16;
    payload[host_nanos_at..host_nanos_at + 8].fill(0);
    payload
}

/// Everything a finished simulator can be asked.
struct Observed {
    summary: RunSummary,
    sm_stats: Vec<SmStats>,
    state: Vec<u8>,
    /// `CompletedRequest`/`LoadInstrRecord` lack `PartialEq`; their `Debug`
    /// form carries every field.
    requests: String,
    loads: String,
    events: Vec<TraceEvent>,
    samples: Vec<CounterSample>,
    dropped_events: u64,
}

fn observe(gpu: &mut Gpu) -> Observed {
    let mut summary = gpu.summary();
    summary.metrics.host_nanos = 0;
    let sm_stats = gpu.sm_stats();
    // Before the takes below, so the bytes cover the sink and the tracer.
    let state = state_bytes(gpu);
    let (requests, loads) = gpu.take_traces();
    let trace = gpu.take_trace();
    Observed {
        summary,
        sm_stats,
        state,
        requests: format!("{requests:?}"),
        loads: format!("{loads:?}"),
        events: trace.events,
        samples: trace.samples,
        dropped_events: trace.dropped_events,
    }
}

fn new_gpu(cfg: &GpuConfig) -> Gpu {
    let mut gpu = Gpu::new(cfg.clone());
    gpu.set_tracing(true);
    gpu
}

/// Runs `scenario` with `run()`, replays it on a fresh GPU with `tick()`
/// for the same number of cycles per launch, and requires the two
/// simulators to be indistinguishable. Returns the `run()` side.
fn assert_skip_invisible(what: &str, cfg: &GpuConfig, scenario: &Scenario) -> Observed {
    let mut launch_ends = Vec::new();
    let mut skipping = new_gpu(cfg);
    scenario(&mut skipping, &mut |gpu| {
        gpu.run(MAX_CYCLES).expect("run drains");
        launch_ends.push(gpu.now());
    });

    let mut ends = launch_ends.iter();
    let mut stepped = new_gpu(cfg);
    scenario(&mut stepped, &mut |gpu| {
        let end = *ends.next().expect("same launch sequence");
        while gpu.now() < end {
            gpu.tick();
        }
        // Already drained, so this only retires the launch (as `run` did on
        // the other side); it times out if the grid is in fact still busy.
        gpu.run(0)
            .unwrap_or_else(|e| panic!("{what}: stepped reference not drained at {end}: {e}"));
    });

    let (a, b) = (observe(&mut skipping), observe(&mut stepped));
    // Field by field first: a failure names what diverged.
    assert_eq!(a.summary, b.summary, "{what}: summaries");
    assert_eq!(a.sm_stats, b.sm_stats, "{what}: per-SM stats");
    assert_eq!(a.requests, b.requests, "{what}: completed requests");
    assert_eq!(a.loads, b.loads, "{what}: load records");
    assert_eq!(a.dropped_events, b.dropped_events, "{what}: event drops");
    assert_eq!(a.events.len(), b.events.len(), "{what}: event count");
    if let Some(i) = (0..a.events.len()).find(|&i| a.events[i] != b.events[i]) {
        panic!(
            "{what}: event {i} diverges: {:?} vs {:?}",
            a.events[i], b.events[i]
        );
    }
    assert_eq!(a.samples, b.samples, "{what}: counter samples");
    assert!(a.state == b.state, "{what}: final snapshots differ");
    assert_eq!(a.summary.sanitizer_violations, 0, "{what}: sanitizer");
    a
}

/// Both tracer settings of one machine: off (the measured configuration)
/// and on with a short sample interval, so samples and per-cycle `Stall`
/// events fall inside skipped intervals.
fn traced_and_untraced(mut cfg: GpuConfig) -> [GpuConfig; 2] {
    let untraced = cfg.clone();
    cfg.trace.enabled = true;
    cfg.trace.sample_interval = 16;
    [untraced, cfg]
}

// ---- equivalence -----------------------------------------------------------

#[test]
fn chases_on_the_microbench_machines_match_stepping() {
    for preset in [
        ArchPreset::FermiGf106,
        ArchPreset::MaxwellGm107,
        ArchPreset::VoltaGv100,
    ] {
        for cfg in traced_and_untraced(preset.config_microbench()) {
            let tag = |kind: &str| {
                let traced = if cfg.trace.enabled {
                    "traced"
                } else {
                    "untraced"
                };
                format!("{} {kind} chase, {traced}", preset.token())
            };
            // 16 KiB at one line per element misses the L1 and hits the L2
            // after the first lap; the 2 MiB / 32 KiB-stride ring spills
            // every preset's L2, so each load is a DRAM round trip.
            let l2 = assert_skip_invisible(
                &tag("global"),
                &cfg,
                &chase(ChaseParams::global(16 * 1024, 128), 12),
            );
            let dram = assert_skip_invisible(
                &tag("shuffled"),
                &cfg,
                &chase(
                    ChaseParams::global_shuffled(2 * 1024 * 1024, 32 * 1024, 7),
                    6,
                ),
            );
            // One warp, one request in flight: nearly every cycle stalls.
            for o in [&l2, &dram] {
                let stalls = o.summary.metrics.stalls.total();
                assert_eq!(
                    stalls,
                    o.sm_stats.iter().map(|s| s.stall_cycles).sum::<u64>()
                );
                assert!(stalls * 10 > o.summary.cycles * 9, "{}", tag("stall share"));
            }
        }
    }
}

#[test]
fn multi_launch_bfs_matches_stepping() {
    let mut cfg = ArchPreset::FermiGf100.config();
    cfg.num_sms = 3;
    cfg.num_partitions = 2;
    for cfg in traced_and_untraced(cfg) {
        let what = format!("gf100 mask BFS, tracing {}", cfg.trace.enabled);
        assert_skip_invisible(&what, &cfg, &mask_bfs);
    }
}

#[test]
fn barrier_and_shared_memory_kernel_matches_stepping() {
    let mut cfg = ArchPreset::FermiGf100.config();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    for cfg in traced_and_untraced(cfg) {
        let what = format!("gf100 reduce, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &barrier_reduce);
        assert!(
            o.summary.metrics.stalls.get(gpu_sim::StallReason::Barrier) > 0,
            "{what}: the kernel should park warps at barriers"
        );
    }
}

#[test]
fn event_cap_drops_are_counted_through_a_jump() {
    // Skipped cycles emit their `Stall` events through the same capped
    // recorder a tick uses: the first `max_events` survive, the rest count
    // as drops, wherever the cap lands inside an interval.
    let mut cfg = ArchPreset::FermiGf106.config_microbench();
    cfg.trace.enabled = true;
    cfg.trace.max_events = 700;
    let o = assert_skip_invisible(
        "capped trace",
        &cfg,
        &chase(ChaseParams::global(2 * 1024 * 1024, 32 * 1024), 2),
    );
    assert_eq!(o.events.len(), 700);
    assert!(o.dropped_events > 0);
}

// ---- boundaries ------------------------------------------------------------

/// A fresh traced GF106 microbench GPU with a lone DRAM-bound chase
/// launched and not yet run: every load waits hundreds of cycles with the
/// whole machine quiescent, so any cycle well inside the run sits in a jump.
fn launched() -> Gpu {
    let mut cfg = ArchPreset::FermiGf106.config_microbench();
    cfg.trace.enabled = true;
    let mut gpu = new_gpu(&cfg);
    let spills_the_l2 = ChaseParams::global(2 * 1024 * 1024, 32 * 1024);
    launch_chase(&mut gpu, spills_the_l2, 4);
    gpu
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idle-skip-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn checkpoint_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("checkpoint reads"))
        })
        .collect();
    files.sort();
    files
}

/// Cycles the boundary chase takes when nothing interrupts it.
fn uninterrupted_cycles() -> u64 {
    launched().run(MAX_CYCLES).expect("run drains").cycles
}

#[test]
fn kill_inside_an_interval_stops_on_cue_and_resumes_identically() {
    let total = uninterrupted_cycles();
    let every = 1000;
    // Mid-run, off every checkpoint multiple, in the middle of a DRAM wait.
    let kill_at = total / 2 / every * every + 337;

    let dir = temp_dir("kill");
    let mut policy = CheckpointPolicy::new(every, &dir);
    policy.kill_at = Some(kill_at);
    let mut killed = launched();
    let outcome = killed
        .run_checkpointed(MAX_CYCLES, &policy)
        .expect("killed run");
    assert_eq!(outcome, RunOutcome::Killed { at: kill_at });
    assert_eq!(killed.now().get(), kill_at);

    // The stepped reference writes the same checkpoints at the same cycles.
    let ref_dir = temp_dir("kill-ref");
    let mut stepped = launched();
    while stepped.now().get() < kill_at {
        let c = stepped.now().get();
        if c > 0 && c.is_multiple_of(every) {
            stepped
                .write_checkpoint(&ref_dir)
                .expect("reference checkpoint");
        }
        stepped.tick();
    }
    let written = checkpoint_files(&dir);
    assert_eq!(
        written.len() as u64,
        kill_at / every,
        "every multiple written"
    );
    assert!(written == checkpoint_files(&ref_dir), "checkpoint bytes");
    assert!(
        state_bytes(&killed) == state_bytes(&stepped),
        "state at the kill"
    );
    // The kill cycle really is inside a jump: the machine was quiescent
    // across it.
    let before = stepped.summary().instructions;
    for _ in 0..20 {
        stepped.tick();
    }
    assert_eq!(
        stepped.summary().instructions,
        before,
        "kill cycle not idle"
    );

    // Resume from the newest checkpoint and finish; compare with a run
    // that was never interrupted.
    let mut resumed = Gpu::resume_latest(&dir)
        .expect("checkpoint reads back")
        .expect("a checkpoint precedes the kill");
    assert_eq!(resumed.now().get(), kill_at / every * every);
    let finished = match resumed
        .run_checkpointed(MAX_CYCLES, &CheckpointPolicy::new(every, &dir))
        .expect("resumed run")
    {
        RunOutcome::Completed(summary) => *summary,
        RunOutcome::Killed { at } => panic!("resume killed again at {at}"),
    };
    let mut straight = launched();
    let expected = match straight
        .run_checkpointed(
            MAX_CYCLES,
            &CheckpointPolicy::new(every, temp_dir("straight")),
        )
        .expect("uninterrupted run")
    {
        RunOutcome::Completed(summary) => *summary,
        RunOutcome::Killed { at } => panic!("no kill switch, killed at {at}"),
    };
    assert_eq!(expected.cycles, total);
    let normalise = |mut s: RunSummary| {
        s.metrics.host_nanos = 0;
        s
    };
    assert_eq!(normalise(finished), normalise(expected));
    assert!(
        observe(&mut resumed).events == observe(&mut straight).events,
        "resumed event stream"
    );
    for dir in [dir, ref_dir, temp_dir("straight")] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn every_checkpoint_multiple_inside_an_interval_is_written() {
    // An interval of hundreds of quiescent cycles spans many multiples of
    // a 64-cycle checkpoint period; each one must still be written, with
    // the bytes a stepped run writes.
    let total = uninterrupted_cycles();
    let every = 64;
    let dir = temp_dir("every");
    let mut gpu = launched();
    let outcome = gpu
        .run_checkpointed(MAX_CYCLES, &CheckpointPolicy::new(every, &dir))
        .expect("checkpointed run");
    assert!(matches!(outcome, RunOutcome::Completed(s) if s.cycles == total));

    let ref_dir = temp_dir("every-ref");
    let mut stepped = launched();
    while stepped.now().get() < total {
        let c = stepped.now().get();
        if c > 0 && c.is_multiple_of(every) {
            stepped
                .write_checkpoint(&ref_dir)
                .expect("reference checkpoint");
        }
        stepped.tick();
    }
    let written = checkpoint_files(&dir);
    // The run drains at `total`, before it would checkpoint that cycle.
    assert_eq!(written.len() as u64, (total - 1) / every);
    assert!(written == checkpoint_files(&ref_dir), "checkpoint bytes");
    for dir in [dir, ref_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn deadline_inside_an_interval_times_out_on_the_deadline() {
    let total = uninterrupted_cycles();
    let max_cycles = total / 2 + 211;
    let mut gpu = launched();
    assert_eq!(gpu.run(max_cycles), Err(SimError::Timeout { max_cycles }));
    assert_eq!(gpu.now().get(), max_cycles);

    let mut stepped = launched();
    for _ in 0..max_cycles {
        stepped.tick();
    }
    // `run` also names stuck partition MSHR lines before reporting the
    // hang; that end-of-run audit is the one thing stepping does not do.
    let (mut a, mut b) = (gpu.summary(), stepped.summary());
    a.sanitizer_violations = b.sanitizer_violations;
    a.metrics.host_nanos = 0;
    b.metrics.host_nanos = 0;
    assert_eq!(a, b);
    assert_eq!(gpu.sm_stats(), stepped.sm_stats());
}

#[test]
fn a_seeded_mshr_leak_is_still_reported() {
    // The leak blocks nothing, so the run drains through its usual jumps;
    // only the end-of-run audit can see it, and it must still happen.
    let leaked = Addr::new(0x7fff_0000);
    let mut gpu = launched();
    gpu.debug_seed_mshr_leak(leaked);
    let outcome = catch_unwind(AssertUnwindSafe(|| gpu.run(MAX_CYCLES)));
    if cfg!(debug_assertions) {
        outcome.expect_err("debug builds panic with the sanitizer report");
    } else {
        let summary = outcome
            .expect("release builds count instead")
            .expect("run ok");
        assert_eq!(summary.sanitizer_violations, 1);
    }
    assert_eq!(gpu.now().get(), uninterrupted_cycles());
    assert!(gpu.sanitizer().violations().iter().any(|v| matches!(
        v,
        Violation::MshrLeak { lines, .. } if lines.contains(&leaked)
    )));
}
