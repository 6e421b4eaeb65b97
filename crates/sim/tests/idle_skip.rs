//! Idle skipping is invisible: a launch driven by [`Gpu::run`] (which jumps
//! the clock over quiescent intervals and, on the cycles it does tick,
//! leaves out every SM and partition that is asleep) must leave a simulator
//! bit-identical to one stepped through the same cycles with
//! [`Gpu::tick`] (which never skips and ticks every component in full) —
//! same summary, per-SM stats, latency traces, event stream, counter
//! samples and final snapshot. No switch selects the skipping, so `tick()`
//! itself is the reference.
//!
//! The second half pins the three cycles where the run loop itself acts
//! and a jump must stop short: the kill switch, every checkpoint multiple,
//! and the `max_cycles` deadline — on a quiescent machine and on one where
//! some SMs sleep while others issue.

mod skip_harness;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use gpu_isa::Launch;
use gpu_sim::{
    CheckpointPolicy, Gpu, RunOutcome, RunSummary, SchedPolicy, SimError, StallReason, Violation,
};
use gpu_types::Addr;
use latency_core::chase::{build_chase_kernel, write_chain, write_shuffled_chain, ChasePattern};
use latency_core::{ArchPreset, ChaseParams};
use skip_harness::{
    assert_skip_invisible, barrier_reduce, launch_reduce, mask_bfs, new_gpu, observe, state_bytes,
    traced_and_untraced, Drain, MAX_CYCLES,
};

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

/// The gf100 machine cut down to `sms` SMs and two partitions.
fn small_gf100(sms: usize) -> gpu_sim::GpuConfig {
    let mut cfg = ArchPreset::FermiGf100.config();
    cfg.num_sms = sms;
    cfg.num_partitions = 2;
    cfg
}

#[test]
fn multi_launch_bfs_matches_stepping() {
    // Every launch after the first dispatches onto SMs that went to sleep
    // empty when the previous grid drained.
    for cfg in traced_and_untraced(small_gf100(3)) {
        let what = format!("gf100 mask BFS, tracing {}", cfg.trace.enabled);
        assert_skip_invisible(&what, &cfg, &mask_bfs(96, 4, 20150301, 32));
    }
}

#[test]
fn barrier_and_shared_memory_kernel_matches_stepping() {
    for cfg in traced_and_untraced(small_gf100(2)) {
        let what = format!("gf100 reduce, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &barrier_reduce(512));
        // Slept cycles are credited to the reason cached when the SM went
        // to sleep: seven warps parked at the barrier while the eighth's
        // load is in flight, then the tree's dependent shared-memory loads.
        for reason in [StallReason::Barrier, StallReason::Scoreboard] {
            assert!(
                o.summary.metrics.stalls.get(reason) > 0,
                "{what}: no {reason:?} stalls"
            );
        }
    }
}

#[test]
fn one_busy_sm_among_fourteen_sleepers_matches_stepping() {
    // One CTA on the full 15-SM, 6-partition machine: SM 0 works, the other
    // fourteen sleep from launch to drain and must observe nothing.
    for cfg in traced_and_untraced(ArchPreset::FermiGf100.config()) {
        let what = format!("gf100 one CTA, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &barrier_reduce(256));
        assert_eq!(o.sm_stats.len(), 15);
        assert!(o.sm_stats[0].instructions > 0 && o.sm_stats[0].stall_cycles > 0);
        for idle in &o.sm_stats[1..] {
            assert_eq!((idle.instructions, idle.stall_cycles), (0, 0), "{what}");
        }
    }
}

#[test]
fn a_grid_larger_than_the_machine_refills_sleeping_sms() {
    // Forty eight-warp CTAs on two SMs that hold six each: every later CTA
    // is dispatched, in the cycle a CTA retires, onto an SM whose tick just
    // ended with a wake cycle planned for the smaller load.
    for cfg in traced_and_untraced(small_gf100(2)) {
        let what = format!("gf100 40-CTA reduce, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &barrier_reduce(40 * 256));
        assert_eq!(o.summary.ctas, 40);
        for sm in &o.sm_stats {
            assert!(sm.ctas_retired > 6, "{what}: an SM was never refilled");
        }
    }
}

#[test]
fn replies_landing_inside_a_sleep_interval_wake_the_sm() {
    // A divergent BFS load fans out into several transactions whose replies
    // come back cycles apart. With the fill pipe stretched to 40 cycles the
    // SM is asleep until the first fill matures when the next reply becomes
    // deliverable, and must take it that cycle, not at its wake cycle.
    let mut cfg = small_gf100(3);
    cfg.fill_latency = 40;
    for cfg in traced_and_untraced(cfg) {
        let what = format!("gf100 slow-fill BFS, tracing {}", cfg.trace.enabled);
        assert_skip_invisible(&what, &cfg, &mask_bfs(96, 4, 20150302, 32));
    }
}

#[test]
fn both_schedulers_and_issue_widths_match_stepping() {
    for scheduler in [SchedPolicy::Lrr, SchedPolicy::Gto] {
        for issue_width in [1, 2] {
            let mut cfg = small_gf100(2);
            cfg.scheduler = scheduler;
            cfg.issue_width = issue_width;
            let what = format!("gf100 {scheduler:?} x{issue_width}");
            // Four two-warp CTAs a side, then twelve eight-warp ones.
            assert_skip_invisible(
                &format!("{what} BFS"),
                &cfg,
                &mask_bfs(256, 4, 20150303, 64),
            );
            assert_skip_invisible(&format!("{what} reduce"), &cfg, &barrier_reduce(12 * 256));
        }
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

/// Kills a run of `launched()` at `kill_at` under a checkpoint-every-`every`
/// policy and checks the checkpoint files and the state at the kill against
/// a `tick()`-stepped reference; then resumes from the newest checkpoint
/// and checks the finished run against one that was never interrupted.
/// Returns the stepped reference, stopped at the kill cycle.
fn kill_and_resume(tag: &str, launched: &dyn Fn() -> Gpu, every: u64, kill_at: u64) -> Gpu {
    let dirs = ["kill", "ref", "straight"].map(|d| temp_dir(&format!("{tag}-{d}")));
    let [dir, ref_dir, straight_dir] = &dirs;
    let mut policy = CheckpointPolicy::new(every, dir);
    policy.kill_at = Some(kill_at);
    let mut killed = launched();
    let outcome = killed
        .run_checkpointed(MAX_CYCLES, &policy)
        .expect("killed run");
    assert_eq!(outcome, RunOutcome::Killed { at: kill_at });
    assert_eq!(killed.now().get(), kill_at);

    // The stepped reference writes the same checkpoints at the same cycles.
    let mut stepped = launched();
    while stepped.now().get() < kill_at {
        let c = stepped.now().get();
        if c > 0 && c.is_multiple_of(every) {
            stepped
                .write_checkpoint(ref_dir)
                .expect("reference checkpoint");
        }
        stepped.tick();
    }
    let written = checkpoint_files(dir);
    assert_eq!(
        written.len() as u64,
        kill_at / every,
        "every multiple written"
    );
    assert!(written == checkpoint_files(ref_dir), "checkpoint bytes");
    assert!(
        state_bytes(&killed) == state_bytes(&stepped),
        "state at the kill"
    );

    // Resume from the newest checkpoint and finish; compare with a run
    // that was never interrupted.
    let mut resumed = Gpu::resume_latest(dir)
        .expect("checkpoint reads back")
        .expect("a checkpoint precedes the kill");
    assert_eq!(resumed.now().get(), kill_at / every * every);
    let finish = |gpu: &mut Gpu, dir: &Path| -> RunSummary {
        match gpu
            .run_checkpointed(MAX_CYCLES, &CheckpointPolicy::new(every, dir))
            .expect("run to the end")
        {
            RunOutcome::Completed(mut summary) => {
                summary.metrics.host_nanos = 0;
                *summary
            }
            RunOutcome::Killed { at } => panic!("no kill switch, killed at {at}"),
        }
    };
    let mut straight = launched();
    assert_eq!(
        finish(&mut resumed, dir),
        finish(&mut straight, straight_dir)
    );
    assert!(
        observe(&mut resumed).events == observe(&mut straight).events,
        "resumed event stream"
    );
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    stepped
}

#[test]
fn kill_inside_an_interval_stops_on_cue_and_resumes_identically() {
    let total = uninterrupted_cycles();
    let every = 1000;
    // Mid-run, off every checkpoint multiple, in the middle of a DRAM wait.
    let kill_at = total / 2 / every * every + 337;
    let mut stepped = kill_and_resume("quiescent", &launched, every, kill_at);
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
}

#[test]
fn kill_and_checkpoint_land_while_some_sms_sleep_and_others_issue() {
    // Five eight-warp CTAs on four SMs, traced. Stepping the reference
    // finds the cycles where the machine is half asleep: some SM issues
    // while another, warps resident, issues nothing from three cycles
    // before to three after (parked on a load or a barrier).
    let launched = || {
        let mut cfg = small_gf100(4);
        cfg.trace.enabled = true;
        let mut gpu = new_gpu(&cfg);
        launch_reduce(&mut gpu, 5 * 256);
        gpu
    };
    let total = launched().run(MAX_CYCLES).expect("run drains").cycles;
    let mut stepped = launched();
    let mut per_cycle = Vec::new();
    let mut before = stepped.sm_stats();
    for _ in 0..total {
        stepped.tick();
        let after = stepped.sm_stats();
        let moved = |f: fn(&gpu_sim::SmStats) -> u64| -> Vec<bool> {
            before
                .iter()
                .zip(&after)
                .map(|(b, a)| f(a) > f(b))
                .collect()
        };
        per_cycle.push((moved(|s| s.instructions), moved(|s| s.stall_cycles)));
        before = after;
    }
    let half_asleep: Vec<u64> = (3..per_cycle.len() - 3)
        .filter(|&c| {
            per_cycle[c].0.iter().any(|&issued| issued)
                && (0..4).any(|sm| (c - 3..=c + 3).all(|w| per_cycle[w].1[sm]))
        })
        .map(|c| c as u64)
        .collect();
    let every = *half_asleep
        .iter()
        .find(|&&c| c >= total / 5)
        .expect("a half-asleep cycle to checkpoint on");
    let kill_at = *half_asleep
        .iter()
        .find(|&&c| c > 2 * every && !c.is_multiple_of(every))
        .expect("a later half-asleep cycle to kill on");
    kill_and_resume("half-asleep", &launched, every, kill_at);
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
    // only the end-of-run audit can see it, and it must still happen —
    // seeded before the first cycle, or mid-run into an SM 0 that is
    // asleep on a DRAM wait.
    let leaked = Addr::new(0x7fff_0000);
    let total = uninterrupted_cycles();
    for seed_at in [0, total / 2 + 337] {
        let mut gpu = launched();
        if seed_at > 0 {
            let mut policy = CheckpointPolicy::none();
            policy.kill_at = Some(seed_at);
            let outcome = gpu.run_checkpointed(MAX_CYCLES, &policy);
            assert_eq!(outcome, Ok(RunOutcome::Killed { at: seed_at }));
        }
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
        assert_eq!(gpu.now().get(), total);
        assert!(gpu.sanitizer().violations().iter().any(|v| matches!(
            v,
            Violation::MshrLeak { lines, .. } if lines.contains(&leaked)
        )));
    }
}
