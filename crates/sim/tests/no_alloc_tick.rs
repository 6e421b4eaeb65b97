//! A quiescent cycle costs no heap traffic: with the one warp of a pointer
//! chase blocked on a DRAM access, `Gpu::tick()` — nine stages, the
//! sanitizer's audit included — must not allocate. These are the cycles
//! the run loop skips when it can and ticks when a clamp or an unsure
//! component says it cannot, so they stay worth keeping free. A loaded
//! BFS tick allocates nothing either, and the ticks on which its warps
//! issue allocate only for each warp's first SIMT-stack growth.

// The counting allocator the tracer's allocation-freedom suites install.
#[path = "../../trace/tests/common/mod.rs"]
mod common;
mod skip_harness;

use gpu_isa::Launch;
use gpu_sim::Gpu;
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
