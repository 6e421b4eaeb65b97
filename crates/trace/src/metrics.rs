//! Run-level metrics attached to the simulator's `RunSummary`.
//!
//! Everything in here is integer-valued and `Copy` so the report composes
//! into the summary's `Eq`/`Default` derives: determinism tests can still
//! compare whole summaries after normalising the one wall-clock field.

use std::time::Duration;

use crate::event::StallBreakdown;
use crate::tracer::{CounterKind, CounterSummary, Tracer};

/// Counter summaries, stall attribution and host-side throughput for one
/// simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Host wall-clock spent inside the cycle loop, in nanoseconds. The
    /// only non-deterministic field — normalise it before comparing
    /// summaries for run-identity.
    pub host_nanos: u64,
    /// Counter samples integrated.
    pub samples: u64,
    /// Per-counter min/max/sum/count over the sampled run, indexed by
    /// [`CounterKind::index`].
    pub counters: [CounterSummary; CounterKind::COUNT],
    /// GPU-wide stall cycles by reason (summed over SMs).
    pub stalls: StallBreakdown,
    /// Events recorded and retained by the tracer.
    pub events_recorded: u64,
    /// Events dropped at the tracer's cap.
    pub events_dropped: u64,
}

/// The workspace's one simulated-cycles-per-host-second implementation.
///
/// **Zero-wall-clock contract:** a run that recorded no host time
/// (`host_nanos == 0` — e.g. a summary restored from a snapshot taken
/// before any ticking) has *no* throughput, and this returns exactly `0.0`
/// rather than an infinity or a NaN. Every throughput figure in the
/// workspace — `MetricsReport`, `RunSummary::cycles_per_second`,
/// `latency`'s stdout — funnels through here, pinned by a shared
/// cross-crate test.
pub fn cycles_per_second(cycles: u64, host_nanos: u64) -> f64 {
    if host_nanos == 0 {
        0.0
    } else {
        cycles as f64 * 1e9 / host_nanos as f64
    }
}

impl MetricsReport {
    /// Simulated cycles per host second (0.0 when no wall-clock elapsed —
    /// see [`cycles_per_second`] for the contract).
    pub fn cycles_per_second(&self, cycles: u64) -> f64 {
        cycles_per_second(cycles, self.host_nanos)
    }

    /// Host wall-clock as a `Duration`.
    pub fn wall_clock(&self) -> Duration {
        Duration::from_nanos(self.host_nanos)
    }

    /// Summary for one counter.
    pub fn counter(&self, kind: CounterKind) -> CounterSummary {
        self.counters[kind.index()]
    }

    /// Fills the tracer-derived fields (counter summaries, sample/event
    /// counts) from the live tracer, leaving `host_nanos` and `stalls` to
    /// the caller.
    pub fn capture_from(&mut self, tracer: &Tracer) {
        self.samples = tracer.samples_taken();
        self.counters = *tracer.summaries();
        self.events_recorded = tracer.events_recorded();
        self.events_dropped = tracer.events_dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::TraceConfig;

    #[test]
    fn throughput_handles_zero_wall_clock() {
        let m = MetricsReport::default();
        assert_eq!(m.cycles_per_second(1_000_000), 0.0);
        let m = MetricsReport {
            host_nanos: 1_000_000_000,
            ..MetricsReport::default()
        };
        assert!((m.cycles_per_second(2_000_000) - 2_000_000.0).abs() < 1e-6);
        assert_eq!(m.wall_clock(), Duration::from_secs(1));
    }

    /// The zero-wall-clock contract of the workspace's single
    /// `cycles_per_second` implementation: exactly 0.0 (never inf/NaN) at
    /// `host_nanos == 0`, finite and exact elsewhere — including the
    /// cycles-without-time corner (`0 / t`) and u64-range inputs.
    #[test]
    fn cycles_per_second_contract() {
        assert_eq!(cycles_per_second(0, 0), 0.0);
        assert_eq!(cycles_per_second(u64::MAX, 0), 0.0);
        assert!(cycles_per_second(u64::MAX, 0).is_finite());
        assert_eq!(cycles_per_second(0, 1_000_000_000), 0.0);
        assert_eq!(cycles_per_second(3_000, 1_000_000_000), 3_000.0);
        // Sub-second runs scale up, not down.
        assert_eq!(cycles_per_second(500, 500_000_000), 1_000.0);
        assert!(cycles_per_second(u64::MAX, 1).is_finite());
    }

    #[test]
    fn capture_pulls_tracer_state() {
        let mut t = Tracer::new(TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        });
        t.sample(0, [3; CounterKind::COUNT]);
        t.sample(64, [5; CounterKind::COUNT]);
        let mut m = MetricsReport::default();
        m.capture_from(&t);
        assert_eq!(m.samples, 2);
        assert_eq!(m.counter(CounterKind::Outstanding).max, 5);
        assert_eq!(m.counter(CounterKind::Outstanding).sum, 8);
    }
}
