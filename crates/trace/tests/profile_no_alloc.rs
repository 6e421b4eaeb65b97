//! The disabled self-profiler must be allocation-free: span guards and
//! manual span adds on the hot tick path may not touch the heap while
//! profiling is off — the profiler's zero-cost-when-off guarantee. Verified
//! with a counting global allocator, like the tracer's `no_alloc` suite.

use gpu_trace::profile::{self, ProfSpan};

mod common;
use common::allocations;

#[test]
fn disabled_profiler_hot_path_is_allocation_free() {
    // This test file holds a single #[test] so no parallel test can flip
    // the process-global enabled flag mid-measurement.
    profile::set_enabled(false);
    assert!(!profile::enabled());

    let before = allocations();
    for i in 0..100_000u64 {
        // Every operation the simulator's tick loop issues per cycle.
        let _stage = profile::span(ProfSpan::TickSms);
        profile::span_add(ProfSpan::BeginNetworks, i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled profiler allocated on the hot path"
    );

    // Nothing may have been recorded either.
    let report = profile::report();
    assert_eq!(report.span(ProfSpan::TickSms).count, 0);
    assert_eq!(report.span(ProfSpan::BeginNetworks).nanos, 0);

    // Sanity check that the counting allocator is actually installed.
    let before = allocations();
    let grown: Vec<u64> = (0..1_000).collect();
    assert!(allocations() > before, "counting allocator not active");
    drop(grown);
}
