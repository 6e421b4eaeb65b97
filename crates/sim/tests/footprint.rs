//! A machine commits memory when it first uses it. `Gpu::new` reserves no
//! queue, crossbar port, DRAM queue or MSHR table, no tag array and no
//! SM's warp slots: each takes its storage on its first push, access or
//! dispatch. When every container reserved its bound at construction,
//! `Gpu::new` asked for 10.2 MiB on the 80-SM gv100 — 5.6 MiB of it the
//! SMs' 512-slot fill pipes — and 1.9 MiB on the 15-SM gf100; with the
//! queues and MSHR tables deferred but tag arrays and warp slots still
//! built up front, 2.9 MiB and 0.42 MiB. Now it is about 259 KiB and
//! 32 KiB; 160 KiB of the gv100's are its SMs' CTA slots.

// The counting allocator the tracer's allocation-freedom suites install.
#[path = "../../trace/tests/common/mod.rs"]
mod common;

use gpu_sim::Gpu;
use latency_core::ArchPreset;

const KIB: u64 = 1 << 10;

/// Bytes the calling thread asks for while building `preset`'s full machine.
fn gpu_new_bytes(preset: ArchPreset) -> u64 {
    let config = preset.config();
    let before = common::bytes();
    let gpu = Gpu::new(config);
    let asked = common::bytes() - before;
    drop(gpu);
    asked
}

#[test]
fn a_fresh_gv100_asks_for_at_most_half_a_mib() {
    let bytes = gpu_new_bytes(ArchPreset::VoltaGv100);
    assert!(
        bytes <= 512 * KIB,
        "Gpu::new(gv100) asked for {bytes} B ({} KiB)",
        bytes / KIB
    );
}

#[test]
fn a_fresh_gf100_asks_for_at_most_64_kib() {
    let bytes = gpu_new_bytes(ArchPreset::FermiGf100);
    assert!(
        bytes <= 64 * KIB,
        "Gpu::new(gf100) asked for {bytes} B ({} KiB)",
        bytes / KIB
    );
}
