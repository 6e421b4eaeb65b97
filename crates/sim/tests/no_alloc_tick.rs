//! A quiescent cycle costs no heap traffic: with the one warp of a pointer
//! chase blocked on a DRAM access, `Gpu::tick()` — nine stages, the
//! sanitizer's audit included — must not allocate. These are the cycles
//! the run loop skips when it can and ticks when a clamp or an unsure
//! component says it cannot, so they stay worth keeping free.

// The counting allocator the tracer's allocation-freedom suites install.
#[path = "../../trace/tests/common/mod.rs"]
mod common;

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
