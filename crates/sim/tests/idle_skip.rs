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
    CheckpointPolicy, EventKind, Gpu, RunOutcome, RunSummary, SchedPolicy, SimError, StallReason,
    TraceSite, Violation, WritePolicy,
};
use gpu_types::Addr;
use latency_core::chase::build_chase_kernel;
use latency_core::{ArchPreset, ChaseParams};
use skip_harness::{
    assert_skip_invisible, barrier_reduce, contended_histogram, launch_histogram, launch_reduce,
    mask_bfs, new_gpu, observe, state_bytes, traced_and_untraced, vecadd, Drain, MAX_CYCLES,
};

// ---- scenarios -------------------------------------------------------------

/// Uploads `params`' chain and launches the §II microbenchmark on it: one
/// thread, `iters` unrolled iterations. Returns the ring's base and the
/// sink the final pointer lands in.
fn launch_chase(gpu: &mut Gpu, params: ChaseParams, iters: u64) -> (Addr, Addr) {
    let base = params.upload_chain(gpu);
    let sink = gpu.alloc(8, gpu.config().line_size);
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
fn sixteen_ctas_on_the_full_gv100_match_stepping() {
    // The kernels-modern machine: 80 SMs with sectored L1s, eight
    // partitions of two L2 slices. Sixteen CTAs land on SMs 0-15; the
    // other 64 go dormant after their first tick and are never visited
    // again, while the sixteen busy ones sleep on barriers and loads.
    for cfg in traced_and_untraced(ArchPreset::VoltaGv100.config()) {
        assert_eq!((cfg.num_sms, cfg.num_partitions), (80, 8));
        let what = format!("gv100 16-CTA reduce, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &barrier_reduce(16 * 256));
        assert_eq!(o.summary.ctas, 16);
        for (si, sm) in o.sm_stats.iter().enumerate() {
            assert_eq!(sm.ctas_retired, u64::from(si < 16), "{what}: SM {si}");
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
fn a_few_bins_histogram_on_the_full_gv100_sleeps_on_full_ports_and_matches_stepping() {
    // Four bins: every atomic goes to one line, so one partition's request
    // port stays full and the SMs whose misses wait on it sleep until an
    // ejection frees a slot they would win.
    for cfg in traced_and_untraced(ArchPreset::VoltaGv100.config()) {
        let what = format!("gv100 4-bin histogram, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &contended_histogram(64 * 256, 4));
        assert!(o.idle.sm_port_sleeps > 100, "{what}: {:?}", o.idle);
        let stalls = o.summary.metrics.stalls.get(StallReason::IcntBackpressure);
        assert!(stalls > 0, "{what}: no back-pressure");
    }
}

/// The 15-SM gf100 with two-slot request and reply queues: a loaded
/// machine's misses back up behind every partition's port, not one.
fn narrow_crossbar_gf100() -> gpu_sim::GpuConfig {
    let mut cfg = ArchPreset::FermiGf100.config();
    cfg.icnt.output_queue = 2;
    cfg
}

#[test]
fn a_narrow_crossbar_bfs_sleeps_on_full_ports_and_matches_stepping() {
    for cfg in traced_and_untraced(narrow_crossbar_gf100()) {
        let what = format!("narrow-crossbar BFS, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &mask_bfs(1024, 8, 20150304, 64));
        assert!(o.idle.sm_port_sleeps > 100, "{what}: {:?}", o.idle);
    }
    let what = "narrow-crossbar histogram";
    let o = assert_skip_invisible(
        what,
        &narrow_crossbar_gf100(),
        &contended_histogram(8192, 16),
    );
    assert!(o.idle.sm_port_sleeps > 100, "{what}: {:?}", o.idle);
}

/// The 15-SM gf100 with one-slot network queues: one reply in flight
/// fills an SM's port, so partitions hold returns their SM cannot take
/// yet and sleep until its ejection frees the slot.
fn narrow_reply_gf100() -> gpu_sim::GpuConfig {
    let mut cfg = ArchPreset::FermiGf100.config();
    cfg.icnt.output_queue = 1;
    cfg
}

#[test]
fn returns_held_at_a_full_reply_port_sleep_and_match_stepping() {
    for cfg in traced_and_untraced(narrow_reply_gf100()) {
        let what = format!("narrow-reply BFS, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &mask_bfs(1024, 8, 20150306, 64));
        assert_eq!(
            o.idle.partition_ticks_slept, 537_777,
            "{what}: {:?}",
            o.idle
        );
    }
}

/// The 15-SM gf100 with two-entry L2 MSHR tables that merge two waiters
/// each: a slice's misses stall on a full table or merge list, and the
/// partition sleeps until its DRAM channel fills a line.
fn small_l2_mshr_gf100() -> gpu_sim::GpuConfig {
    let mut cfg = ArchPreset::FermiGf100.config();
    let l2 = cfg.l2.as_mut().expect("gf100 has an L2");
    l2.mshr.entries = 2;
    l2.mshr.max_merged = 2;
    cfg
}

#[test]
fn an_l2_slice_stalled_on_a_full_mshr_table_sleeps_and_matches_stepping() {
    for cfg in traced_and_untraced(small_l2_mshr_gf100()) {
        let what = format!("small-L2-MSHR BFS, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &mask_bfs(1024, 8, 20150307, 64));
        assert_eq!(
            o.idle.partition_ticks_slept, 333_021,
            "{what}: {:?}",
            o.idle
        );
    }
}

/// The 15-SM gf100 with L2 slices of one two-way set: a third line in
/// flight finds both ways reserved. Each such attempt still advances the
/// slice's replacement clock, so the partition must stay awake for it.
fn reserved_l2_gf100() -> gpu_sim::GpuConfig {
    let mut cfg = ArchPreset::FermiGf100.config();
    let l2 = cfg.l2.as_mut().expect("gf100 has an L2");
    l2.cache.sets = 1;
    l2.cache.ways = 2;
    cfg
}

#[test]
fn an_l2_slice_with_every_way_reserved_matches_stepping() {
    for cfg in traced_and_untraced(reserved_l2_gf100()) {
        let what = format!("reserved-L2 BFS, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &mask_bfs(512, 8, 20150309, 64));
        assert_eq!(
            o.idle.partition_ticks_slept, 229_139,
            "{what}: {:?}",
            o.idle
        );
    }
}

/// The same one-set L2, write-back: a store whose set has both ways
/// reserved changes nothing until a fill frees one, so the partition
/// sleeps until its DRAM channel delivers that fill. (A build whose store
/// retried every cycle, counting an L2 miss each time, read 31 248 misses
/// and 7 775 slept partition ticks.)
#[test]
fn a_write_back_store_waiting_for_a_reserved_way_sleeps_and_matches_stepping() {
    let mut cfg = reserved_l2_gf100();
    cfg.l2.as_mut().expect("gf100 has an L2").write_policy = WritePolicy::WriteBack;
    for cfg in traced_and_untraced(cfg) {
        let what = format!(
            "reserved write-back L2 vecadd, tracing {}",
            cfg.trace.enabled
        );
        let o = assert_skip_invisible(&what, &cfg, &vecadd(16_384));
        assert_eq!(o.summary.l2_misses, 1536, "{what}");
        assert_eq!(o.idle.partition_ticks_slept, 36_956, "{what}: {:?}", o.idle);
    }
}

#[test]
fn a_gv100_bfs_accepting_behind_a_busy_rop_matches_stepping() {
    // Requests reach a partition while earlier ones are still in its ROP
    // pipe: an accept lowers the wake cycle only when it becomes the
    // pipe's head, and the two L2 slices share the DRAM channel.
    for cfg in traced_and_untraced(ArchPreset::VoltaGv100.config()) {
        let what = format!("gv100 BFS, tracing {}", cfg.trace.enabled);
        let o = assert_skip_invisible(&what, &cfg, &mask_bfs(2048, 8, 20150308, 64));
        assert_eq!(
            o.idle.partition_ticks_slept, 234_740,
            "{what}: {:?}",
            o.idle
        );
    }
}

#[test]
fn event_cap_drops_are_counted_through_a_jump() {
    // A stall interval spanning skipped cycles closes through the same
    // capped recorder a tick uses: the first `max_events` survive, the rest
    // count as drops, wherever the cap lands. The chase records 230 events
    // uncapped.
    let mut cfg = ArchPreset::FermiGf106.config_microbench();
    cfg.trace.enabled = true;
    cfg.trace.max_events = 120;
    let o = assert_skip_invisible(
        "capped trace",
        &cfg,
        &chase(ChaseParams::global(2 * 1024 * 1024, 32 * 1024), 2),
    );
    assert_eq!(o.events.len(), 120);
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
fn a_checkpoint_inside_an_open_stall_interval_splits_it() {
    // The lone chase's SM stalls for one reason through a whole DRAM wait.
    // A checkpoint landing inside one closes the open interval into the
    // trace and opens its continuation — the interval a restored SM opens
    // with its fresh vote — so the run and its resumption record the same
    // stream (`kill_and_resume` compares them).
    let total = uninterrupted_cycles() as usize;
    let mut stepped = launched();
    let mut reasons = Vec::new();
    let mut before = stepped.sm_stats()[0].stalls;
    for _ in 0..total {
        stepped.tick();
        let after = stepped.sm_stats()[0].stalls;
        let moved = StallReason::ALL
            .into_iter()
            .find(|&r| after.get(r) > before.get(r));
        reasons.push(moved);
        before = after;
    }
    let every = (total / 3..total)
        .find(|&c| reasons[c].is_some() && reasons[c - 1] == reasons[c])
        .expect("a cycle inside a stall interval") as u64;
    let mut reference = kill_and_resume("split", &launched, every, every + every / 2);

    let events = observe(&mut reference).events;
    let on_sm0 = |e: &&gpu_sim::TraceEvent| {
        e.site == TraceSite::Sm(0) && matches!(e.kind, EventKind::Stall { .. })
    };
    let at = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Checkpoint { .. }))
        .expect("the checkpoint is traced");
    assert_eq!(events[at].cycle, every);
    let closed = events[..at]
        .iter()
        .rev()
        .find(on_sm0)
        .expect("a closed interval");
    let next = events[at + 1..]
        .iter()
        .find(on_sm0)
        .expect("its continuation");
    let (
        EventKind::Stall { reason, .. },
        EventKind::Stall {
            reason: goes_on,
            cycles,
        },
    ) = (closed.kind, next.kind)
    else {
        panic!("not a split interval: {closed:?}, {next:?}");
    };
    assert_eq!(closed.cycle, every, "closed at the checkpoint");
    assert_eq!(
        (goes_on, next.cycle - cycles),
        (reason, every),
        "goes on from it"
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
fn kill_and_checkpoint_land_while_most_of_a_gv100_sleeps() {
    // Sixteen eight-warp CTAs on the 80-SM gv100, traced. Driving `run`
    // one cycle at a time (a kill switch on the next cycle) reads off, from
    // the idle counts, the ticked cycles on which some SM issued while at
    // least 65 slept — the 64 empty ones and at least one holding warps:
    // the kill and the checkpoint land on those.
    let launched = || {
        let mut cfg = ArchPreset::VoltaGv100.config();
        cfg.trace.enabled = true;
        let mut gpu = new_gpu(&cfg);
        launch_reduce(&mut gpu, 16 * 256);
        gpu
    };
    let mut probe = launched();
    let mut mostly_asleep = Vec::new();
    loop {
        let cycle = probe.now().get();
        let (idle, issued) = (probe.idle_counts(), probe.summary().instructions);
        let mut policy = CheckpointPolicy::none();
        policy.kill_at = Some(cycle + 1);
        let outcome = probe
            .run_checkpointed(MAX_CYCLES, &policy)
            .expect("one cycle");
        let after = probe.idle_counts();
        let ticked = after.skipped_cycles == idle.skipped_cycles;
        let slept = after.sm_ticks_slept - idle.sm_ticks_slept;
        if ticked && slept > 64 && probe.summary().instructions > issued {
            mostly_asleep.push(cycle);
        }
        if matches!(outcome, RunOutcome::Completed(_)) {
            break;
        }
    }
    let total = probe.now().get();
    let every = *mostly_asleep
        .iter()
        .find(|&&c| c >= total / 5)
        .expect("a mostly-asleep cycle to checkpoint on");
    let kill_at = *mostly_asleep
        .iter()
        .find(|&&c| c > 2 * every && !c.is_multiple_of(every))
        .expect("a later mostly-asleep cycle to kill on");
    kill_and_resume("gv100", &launched, every, kill_at);
}

#[test]
fn kill_and_checkpoint_land_while_sms_sleep_on_a_full_port() {
    // The narrow-crossbar gf100 running a 16-bin histogram, traced.
    // Driving `run` one cycle at a time reads off the ticked cycles on
    // which at least three SMs sleep with their miss waiting on a full
    // request port: the checkpoint multiple and the kill land on those,
    // and the resumed run, which carries no registration, rebuilds it.
    let launched = || {
        let mut cfg = narrow_crossbar_gf100();
        cfg.trace.enabled = true;
        let mut gpu = new_gpu(&cfg);
        launch_histogram(&mut gpu, 8192, 16);
        gpu
    };
    let mut probe = launched();
    let mut port_asleep = Vec::new();
    loop {
        let cycle = probe.now().get();
        let skipped = probe.idle_counts().skipped_cycles;
        let mut policy = CheckpointPolicy::none();
        policy.kill_at = Some(cycle + 1);
        let outcome = probe
            .run_checkpointed(MAX_CYCLES, &policy)
            .expect("one cycle");
        let ticked = probe.idle_counts().skipped_cycles == skipped;
        if ticked && probe.port_sleepers() >= 3 {
            port_asleep.push(cycle + 1);
        }
        if matches!(outcome, RunOutcome::Completed(_)) {
            break;
        }
    }
    assert!(probe.idle_counts().sm_port_sleeps > 100);
    let total = probe.now().get();
    let every = *port_asleep
        .iter()
        .find(|&&c| c >= total / 5)
        .expect("a port-asleep cycle to checkpoint on");
    let kill_at = *port_asleep
        .iter()
        .find(|&&c| c > 2 * every && !c.is_multiple_of(every))
        .expect("a later port-asleep cycle to kill on");
    kill_and_resume("port", &launched, every, kill_at);
}

#[test]
fn kill_and_checkpoint_land_while_partitions_sleep_on_a_full_reply_port() {
    // The one-slot-queue gf100 running a 16-bin histogram, traced: the
    // checkpoint multiple and the kill land on ticked cycles on which a
    // partition sleeps with its return head waiting on a full reply port,
    // and the resumed run, which carries no registration, starts with
    // every partition due.
    let launched = || {
        let mut cfg = narrow_reply_gf100();
        cfg.trace.enabled = true;
        let mut gpu = new_gpu(&cfg);
        launch_histogram(&mut gpu, 8192, 16);
        gpu
    };
    let mut probe = launched();
    let mut reply_asleep = Vec::new();
    loop {
        let cycle = probe.now().get();
        let skipped = probe.idle_counts().skipped_cycles;
        let mut policy = CheckpointPolicy::none();
        policy.kill_at = Some(cycle + 1);
        let outcome = probe
            .run_checkpointed(MAX_CYCLES, &policy)
            .expect("one cycle");
        let ticked = probe.idle_counts().skipped_cycles == skipped;
        if ticked && probe.reply_sleepers() > 0 {
            reply_asleep.push(cycle + 1);
        }
        if matches!(outcome, RunOutcome::Completed(_)) {
            break;
        }
    }
    assert!(reply_asleep.len() > 100, "{} cycles", reply_asleep.len());
    let total = probe.now().get();
    let every = *reply_asleep
        .iter()
        .find(|&&c| c >= total / 5)
        .expect("a reply-asleep cycle to checkpoint on");
    let kill_at = *reply_asleep
        .iter()
        .find(|&&c| c > 2 * every && !c.is_multiple_of(every))
        .expect("a later reply-asleep cycle to kill on");
    kill_and_resume("reply", &launched, every, kill_at);
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
