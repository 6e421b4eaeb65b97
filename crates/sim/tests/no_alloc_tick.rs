//! A quiescent cycle costs no heap traffic: with the one warp of a pointer
//! chase blocked on a DRAM access, `Gpu::tick()` — nine stages, the
//! sanitizer's audit included — must not allocate. These are the cycles
//! the run loop skips when it can and ticks when a clamp or an unsure
//! component says it cannot, so they stay worth keeping free. A loaded
//! BFS tick allocates nothing either, and the ticks on which its warps
//! issue allocate only for each warp's first SIMT-stack growth. The ready
//! set's own events — a warp leaving it on exit, a barrier reclassifying
//! its CTA — allocate nothing. Nor does the run loop's own bookkeeping —
//! the wake cycles, port arrivals and audit marks it visits components by
//! — on the 80-SM gv100, nor, on a back-pressured gf100, its port
//! registrations and the DRAM scheduling horizon.

// The counting allocator the tracer's allocation-freedom suites install.
#[path = "../../trace/tests/common/mod.rs"]
mod common;
mod skip_harness;

use gpu_isa::{Kernel, KernelBuilder, Launch, Space, Special, Width};
use gpu_sim::{CheckpointPolicy, Gpu, RunOutcome, StallReason};
use latency_core::chase::{build_chase_kernel, write_chain};
use latency_core::{ArchPreset, ChaseParams};

#[test]
fn a_tick_in_the_middle_of_a_dram_wait_allocates_nothing() {
    // A 2 MiB ring at a 32 KiB stride spills the L2: every load goes to DRAM.
    let params = ChaseParams::global(2 * 1024 * 1024, 32 * 1024);
    let cfg = ArchPreset::FermiGf106.config_microbench();
    assert!(cfg.sanitize, "the audit stage is part of the claim");
    let mut gpu = Gpu::new(cfg);
    gpu.set_tracing(true);
    let base = gpu.alloc(params.footprint, 128);
    write_chain(&mut gpu, base, params.count(), params.stride);
    let sink = gpu.alloc(8, 128);
    gpu.launch(
        build_chase_kernel(&params),
        Launch::new(1, 1, vec![base.get(), 4, sink.get()]),
    )
    .expect("chase launches");

    // Past the first laps (queues and maps have grown to their working
    // size), stop on the tick that schedules a DRAM access: its data is
    // now tens of cycles away and nothing else is in flight.
    let mut waits_checked = 0;
    while waits_checked < 8 {
        let serviced = gpu.summary().dram_serviced;
        gpu.tick();
        if gpu.summary().dram_serviced == serviced || serviced < 16 {
            continue;
        }
        let before = gpu.summary();
        let allocations = common::allocations();
        gpu.tick();
        gpu.tick();
        let allocated = common::allocations() - allocations;
        let after = gpu.summary();
        assert_eq!(after.dram_serviced, before.dram_serviced, "still waiting");
        assert_eq!(after.instructions, before.instructions, "warp blocked");
        assert_eq!(
            after.metrics.stalls.total(),
            before.metrics.stalls.total() + 2
        );
        assert_eq!(allocated, 0, "ticks at cycle {} allocated", before.cycles);
        waits_checked += 1;
    }
}

/// The loaded counterpart: mask BFS on the 15-SM GF100, grids that fit the
/// machine, so a launch's first tick dispatches every CTA. A traversal of
/// twice the size comes first and leaves every retained buffer — queues,
/// MSHR merge lists, the pending-load table, the line and DRAM-completion
/// scratch — at a working size the measured traversal stays within. Then a
/// full tick (nobody sleeping, the audit included) on which no warp issues
/// allocates nothing, whatever else moves: writebacks, L1 and L2 accesses,
/// MSHR merges and fills, both crossbars, DRAM scheduling and completion,
/// CTA retirement. The ticks on which warps do issue — ALU, branch and
/// memory instructions — allocate at most once per warp the launch
/// dispatched, all told: the functional executor keeps its lane-access
/// list, so what is left is each warp's first SIMT-stack growth.
#[test]
fn a_loaded_tick_on_which_no_warp_issues_allocates_nothing() {
    const BLOCK: u32 = 64;
    let cfg = ArchPreset::FermiGf100.config();
    assert!(cfg.sanitize, "the audit stage is part of the claim");
    assert!((4096 / BLOCK) as usize <= cfg.num_sms * cfg.max_ctas_per_sm);
    let mut gpu = Gpu::new(cfg);
    skip_harness::mask_bfs(4096, 8, 0x3A8, BLOCK)(&mut gpu, &mut |gpu| {
        gpu.run(skip_harness::MAX_CYCLES).expect("warm-up drains");
    });

    let (mut checked, mut dram_at_work, mut issuing) = (0u64, 0u64, 0u64);
    skip_harness::mask_bfs(2048, 8, 0x10AD, BLOCK)(&mut gpu, &mut |gpu| {
        let retired = gpu.summary().ctas + u64::from(2048 / BLOCK);
        let warps = u64::from(2048 / BLOCK * BLOCK.div_ceil(32));
        gpu.tick();
        let mut issue_allocations = 0;
        while gpu.summary().ctas < retired {
            let before = gpu.summary();
            let allocations = common::allocations();
            gpu.tick();
            let allocated = common::allocations() - allocations;
            let after = gpu.summary();
            if after.instructions != before.instructions {
                issue_allocations += allocated;
                issuing += 1;
                continue;
            }
            assert_eq!(allocated, 0, "tick at cycle {} allocated", before.cycles);
            checked += 1;
            dram_at_work += u64::from(after.dram_serviced != before.dram_serviced);
        }
        assert!(
            issue_allocations <= warps,
            "issuing ticks allocated {issue_allocations} times for {warps} warps"
        );
        gpu.run(skip_harness::MAX_CYCLES)
            .expect("the retired grid drains");
    });
    assert!(checked > 5_000, "only {checked} ticks checked");
    assert!(issuing > 1_000, "only {issuing} issuing ticks");
    assert!(
        dram_at_work > 500,
        "DRAM scheduled on {dram_at_work} of them"
    );
}

/// Each thread stores its input word to shared memory, meets its CTA at
/// `bar.sync`, adds its neighbour-warp's word and writes the sum out: a
/// barrier per CTA and an exit per warp, without a branch, so no warp ever
/// grows its SIMT stack.
fn barrier_exchange_kernel(block_dim: u32) -> Kernel {
    let mut b = KernelBuilder::new("barrier_exchange");
    let sdata = b.alloc_shared(4 * u64::from(block_dim));
    let input = b.param(0);
    let output = b.param(1);
    let tid = b.special(Special::TidX);
    let gtid = b.special(Special::GlobalTid);
    let g_off = b.shl(gtid, 2);
    let in_addr = b.add(input, g_off);
    let mine = b.ld_global(Width::W4, in_addr, 0);
    let s_off = b.shl(tid, 2);
    let s_addr = b.add(s_off, sdata as i64);
    b.st(Space::Shared, Width::W4, s_addr, 0, mine);
    b.bar();
    let peer = b.add(tid, 32i64);
    let peer = b.and(peer, i64::from(block_dim - 1));
    let p_off = b.shl(peer, 2);
    let p_addr = b.add(p_off, sdata as i64);
    let theirs = b.ld(Space::Shared, Width::W4, p_addr, 0);
    let sum = b.add(mine, theirs);
    let out_addr = b.add(output, g_off);
    b.st_global(Width::W4, out_addr, 0, sum);
    b.exit();
    b.build().expect("valid kernel")
}

/// Live warps and warps parked at a barrier, machine-wide, as the SMs'
/// stall votes count them.
fn live_and_parked(gpu: &Gpu) -> (u64, u64) {
    gpu.sms().iter().fold((0, 0), |(live, parked), sm| {
        let votes = sm.stall_votes();
        (
            live + votes.total(),
            parked + votes.get(StallReason::Barrier),
        )
    })
}

/// On a 2-SM GF100 whose grid fits the machine (every CTA dispatched on
/// the launch's first tick), after a warm-up launch of the same kernel: a
/// tick on which a warp exits and leaves the ready set, and a tick on which
/// a CTA's barrier releases and its warps are reclassified, allocate
/// nothing.
#[test]
fn ticks_on_which_warps_exit_or_a_barrier_releases_allocate_nothing() {
    const BLOCK: u32 = 128;
    const CTAS: u32 = 8;
    let mut cfg = ArchPreset::FermiGf100.config();
    cfg.num_sms = 2;
    cfg.num_partitions = 2;
    assert!(cfg.sanitize, "the audit stage is part of the claim");
    let mut gpu = Gpu::new(cfg);
    let threads = u64::from(BLOCK * CTAS);
    let input = gpu.alloc(4 * threads, 128);
    let output = gpu.alloc(4 * threads, 128);
    for i in 0..threads {
        gpu.device_mut().write_u32(input + 4 * i, i as u32);
    }
    let launch = |gpu: &mut Gpu| {
        gpu.launch(
            barrier_exchange_kernel(BLOCK),
            Launch::new(CTAS, BLOCK, vec![input.get(), output.get()]),
        )
        .expect("launches");
    };
    launch(&mut gpu);
    gpu.run(skip_harness::MAX_CYCLES).expect("warm-up drains");

    launch(&mut gpu);
    gpu.tick();
    let warps = u64::from(CTAS * BLOCK / 32);
    assert_eq!(
        live_and_parked(&gpu).0,
        warps,
        "one tick dispatched them all"
    );
    let (mut exits, mut releases) = (0, 0);
    while live_and_parked(&gpu).0 > 0 {
        let (live, parked) = live_and_parked(&gpu);
        let allocations = common::allocations();
        gpu.tick();
        let allocated = common::allocations() - allocations;
        let (live_after, parked_after) = live_and_parked(&gpu);
        // A parked warp leaves the barrier only by its release.
        let (exited, released) = (live_after < live, parked_after < parked);
        if exited || released {
            assert_eq!(
                allocated,
                0,
                "tick at cycle {} (exit: {exited}, release: {released}) allocated",
                gpu.now().get() - 1
            );
        }
        exits += u64::from(exited);
        releases += u64::from(released);
    }
    assert!(
        exits > 0 && releases > 0,
        "{exits} exit and {releases} release ticks"
    );
    gpu.run(skip_harness::MAX_CYCLES).expect("the grid drains");
    for t in 0..threads {
        let peer = t / u64::from(BLOCK) * u64::from(BLOCK) + (t + 32) % u64::from(BLOCK);
        assert_eq!(gpu.device().read_u32(output + 4 * t), (t + peer) as u32);
    }
}

/// The `kernels-modern` machine, driven by `run` itself: sixteen CTAs of
/// the barrier-heavy reduction on the full 80-SM gv100 (sanitizer on, so
/// the audit's marks and stored counts are in play), after a warm-up
/// launch of the same grid. `run` is stopped after every cycle by a kill
/// switch on the next one, so each call is exactly one cycle of the run
/// loop — ticked, with 64 dormant SMs and most of the rest asleep, or
/// jumped. Once the first cycle has dispatched the grid, every such cycle
/// on which no warp issues allocates nothing.
#[test]
fn a_run_cycle_on_the_full_gv100_allocates_nothing() {
    const N: u64 = 16 * 256;
    let cfg = ArchPreset::VoltaGv100.config();
    assert!(cfg.sanitize, "the audit stage is part of the claim");
    assert_eq!(cfg.num_sms, 80);
    let mut gpu = Gpu::new(cfg);
    skip_harness::barrier_reduce(N)(&mut gpu, &mut |gpu| {
        gpu.run(skip_harness::MAX_CYCLES).expect("warm-up drains");
    });

    skip_harness::launch_reduce(&mut gpu, N);
    let mut policy = CheckpointPolicy::none();
    let mut one_cycle = |gpu: &mut Gpu| {
        policy.kill_at = Some(gpu.now().get() + 1);
        let allocations = common::allocations();
        let outcome = gpu
            .run_checkpointed(skip_harness::MAX_CYCLES, &policy)
            .expect("one cycle");
        (outcome, common::allocations() - allocations)
    };
    one_cycle(&mut gpu);
    assert_eq!(
        live_and_parked(&gpu).0,
        16 * 8,
        "the first cycle dispatched"
    );
    let (mut checked, mut jumped) = (0u64, 0u64);
    loop {
        let (issued, skipped) = (gpu.summary().instructions, gpu.idle_counts());
        let (outcome, allocated) = one_cycle(&mut gpu);
        if let RunOutcome::Completed(_) = outcome {
            break;
        }
        if gpu.summary().instructions != issued {
            continue;
        }
        assert_eq!(allocated, 0, "cycle {} allocated", gpu.now().get() - 1);
        checked += 1;
        jumped += gpu.idle_counts().skipped_cycles - skipped.skipped_cycles;
    }
    assert!(checked > 500, "only {checked} cycles checked");
    assert!(
        checked > jumped,
        "{jumped} of {checked} checked cycles were jumps"
    );
}

/// Drives `run` one cycle at a time (a kill switch on the next cycle):
/// returns the outcome and the allocations the cycle made.
fn one_run_cycle(gpu: &mut Gpu) -> (RunOutcome, u64) {
    let mut policy = CheckpointPolicy::none();
    policy.kill_at = Some(gpu.now().get() + 1);
    let allocations = common::allocations();
    let outcome = gpu
        .run_checkpointed(skip_harness::MAX_CYCLES, &policy)
        .expect("one cycle");
    (outcome, common::allocations() - allocations)
}

/// Mask BFS on the 15-SM gf100 with two-slot crossbar queues, driven by
/// `run` one cycle at a time after a traversal of twice the size: misses
/// back up behind full request ports and SMs sleep on them, while the
/// DRAM channels schedule. After each launch's first cycle (which
/// dispatches its CTAs), a cycle on which no warp issues allocates
/// nothing — the ones on which SMs sleep on a port (registering, woken by
/// an ejection, registering again) and the ones on which a DRAM channel
/// schedules and recomputes its horizon included.
#[test]
fn port_sleeps_and_dram_horizon_updates_allocate_nothing() {
    const BLOCK: u32 = 64;
    let mut cfg = ArchPreset::FermiGf100.config();
    cfg.icnt.output_queue = 2;
    assert!(cfg.sanitize, "the audit stage is part of the claim");
    let mut gpu = Gpu::new(cfg);
    skip_harness::mask_bfs(4096, 8, 0x3A8, BLOCK)(&mut gpu, &mut |gpu| {
        gpu.run(skip_harness::MAX_CYCLES).expect("warm-up drains");
    });

    let (mut port_sleeping, mut scheduling) = (0u64, 0u64);
    skip_harness::mask_bfs(2048, 8, 0x10AD, BLOCK)(&mut gpu, &mut |gpu| {
        one_run_cycle(gpu);
        loop {
            let (before, sleeps) = (gpu.summary(), gpu.idle_counts().sm_port_sleeps);
            let (outcome, allocated) = one_run_cycle(gpu);
            if let RunOutcome::Completed(_) = outcome {
                break;
            }
            let after = gpu.summary();
            if after.instructions != before.instructions {
                continue;
            }
            let cycle = gpu.now().get() - 1;
            assert_eq!(allocated, 0, "cycle {cycle} allocated");
            if gpu.port_sleepers() > 0 || gpu.idle_counts().sm_port_sleeps > sleeps {
                port_sleeping += 1;
            }
            scheduling += u64::from(after.dram_serviced != before.dram_serviced);
        }
    });
    assert!(
        port_sleeping > 10_000,
        "only {port_sleeping} port-sleep cycles"
    );
    assert!(scheduling > 1_000, "DRAM scheduled on {scheduling} of them");
}

/// The request table grows only to the peak number of requests in flight
/// at once, so after a warm-up run it takes no more storage, issuing ticks
/// included: a loaded mask BFS on the 15-SM gf100 after a traversal of
/// twice the size, ticked in full, and the barrier-heavy reduction on the
/// full gv100 after a warm-up launch of the same grid, driven by `run` one
/// cycle at a time. The table grows only by pushing a slot, so a slot
/// count that holds means no tick allocated for it.
#[test]
fn after_a_warm_up_no_tick_allocates_for_the_request_table() {
    const BLOCK: u32 = 64;
    let mut gpu = Gpu::new(ArchPreset::FermiGf100.config());
    skip_harness::mask_bfs(4096, 8, 0x3A8, BLOCK)(&mut gpu, &mut |gpu| {
        gpu.run(skip_harness::MAX_CYCLES).expect("warm-up drains");
    });
    let slots = gpu.requests().slots();
    let mut peak = 0;
    skip_harness::mask_bfs(2048, 8, 0x10AD, BLOCK)(&mut gpu, &mut |gpu| {
        let retired = gpu.summary().ctas + u64::from(2048 / BLOCK);
        while gpu.summary().ctas < retired {
            gpu.tick();
            assert_eq!(gpu.requests().slots(), slots, "cycle {}", gpu.now());
            peak = peak.max(gpu.requests().live());
        }
        gpu.run(skip_harness::MAX_CYCLES)
            .expect("the retired grid drains");
    });
    assert!(peak > 100, "only {peak} requests in flight at once");

    const N: u64 = 16 * 256;
    let mut gpu = Gpu::new(ArchPreset::VoltaGv100.config());
    skip_harness::barrier_reduce(N)(&mut gpu, &mut |gpu| {
        gpu.run(skip_harness::MAX_CYCLES).expect("warm-up drains");
    });
    let slots = gpu.requests().slots();
    skip_harness::launch_reduce(&mut gpu, N);
    let mut peak = 0;
    while let (RunOutcome::Killed { .. }, _) = one_run_cycle(&mut gpu) {
        assert_eq!(gpu.requests().slots(), slots, "cycle {}", gpu.now());
        peak = peak.max(gpu.requests().live());
    }
    assert!(peak > 100, "only {peak} requests in flight at once");
}
