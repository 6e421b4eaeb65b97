//! The disabled tracer must be allocation-free on the hot path: recording
//! an event or offering a sample to a disabled tracer may not touch the
//! heap. Verified with a counting global allocator.

use gpu_trace::{CounterKind, EventKind, TraceConfig, TraceEvent, TraceSite, Tracer};

mod common;
use common::allocations;

#[test]
fn disabled_tracer_hot_path_is_allocation_free() {
    let mut tracer = Tracer::new(TraceConfig::default());
    assert!(!tracer.enabled());
    let event = TraceEvent {
        cycle: 1,
        site: TraceSite::Sm(0),
        kind: EventKind::MshrAllocate { line: 0x80 },
    };
    let values = [3u64; CounterKind::COUNT];

    let before = allocations();
    for cycle in 0..100_000u64 {
        tracer.record(TraceEvent { cycle, ..event });
        if tracer.should_sample(cycle) {
            tracer.sample(cycle, values);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled tracer allocated on the hot path"
    );
    assert_eq!(tracer.events_recorded(), 0);
    assert_eq!(tracer.samples_taken(), 0);
}

#[test]
fn enabled_tracer_does_allocate_as_a_sanity_check() {
    // Guards against the counting allocator silently not being installed.
    let mut tracer = Tracer::new(TraceConfig {
        enabled: true,
        ..TraceConfig::default()
    });
    let before = allocations();
    for cycle in 0..1_000u64 {
        tracer.record(TraceEvent {
            cycle,
            site: TraceSite::Gpu,
            kind: EventKind::MshrMerge { line: cycle },
        });
    }
    assert!(allocations() > before, "counting allocator not active");
    assert_eq!(tracer.events_recorded(), 1_000);
}
