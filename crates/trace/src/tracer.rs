//! The event sink and sampled-counter registry.
//!
//! A [`Tracer`] is owned by the simulator's cycle loop. It is built from a
//! [`TraceConfig`] and is *zero-cost when disabled*: every recording entry
//! point checks a single `bool` and returns — no formatting, no allocation,
//! no hashing (verified by the `no_alloc` integration test).

use std::collections::VecDeque;

use crate::event::TraceEvent;

/// Tracing configuration, carried inside the simulator's `GpuConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off by default; when off the tracer records nothing
    /// and the simulated timing is bit-identical to an untraced build.
    pub enabled: bool,
    /// Sample the counter registry every this many cycles.
    pub sample_interval: u64,
    /// Cap on stored events; recording past it increments a drop counter
    /// instead of growing without bound.
    pub max_events: usize,
    /// Ring-buffer capacity for counter samples. The per-counter summaries
    /// keep integrating over *all* samples even after old ones rotate out.
    pub counter_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            sample_interval: 64,
            max_events: 1 << 20,
            counter_capacity: 1 << 16,
        }
    }
}

/// The gauges sampled each interval (instantaneous occupancies plus the
/// cumulative DRAM row-hit rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterKind {
    /// Occupied L1 MSHR entries, summed over SMs.
    L1MshrOccupancy,
    /// SM memory front-end pipe occupancy, summed over SMs.
    FrontDepth,
    /// L1 miss-queue occupancy, summed over SMs.
    MissQueueDepth,
    /// ROP pipeline occupancy, summed over partitions.
    RopQueueDepth,
    /// L2 input-queue occupancy, summed over partitions.
    L2QueueDepth,
    /// Occupied L2 MSHR entries, summed over partitions.
    L2MshrOccupancy,
    /// DRAM controller-queue occupancy, summed over partitions.
    DramQueueDepth,
    /// Requests in flight inside both crossbar networks.
    IcntInFlight,
    /// The GPU's global outstanding-request counter.
    Outstanding,
    /// Cumulative DRAM row-hit rate in permille (row hits × 1000 /
    /// serviced), all partitions.
    DramRowHitPermille,
}

impl CounterKind {
    /// All counters, in sample-array order.
    pub const ALL: [CounterKind; 10] = [
        CounterKind::L1MshrOccupancy,
        CounterKind::FrontDepth,
        CounterKind::MissQueueDepth,
        CounterKind::RopQueueDepth,
        CounterKind::L2QueueDepth,
        CounterKind::L2MshrOccupancy,
        CounterKind::DramQueueDepth,
        CounterKind::IcntInFlight,
        CounterKind::Outstanding,
        CounterKind::DramRowHitPermille,
    ];

    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Index into sample arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short machine-readable name (CSV header, Chrome counter-track name).
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::L1MshrOccupancy => "l1_mshr",
            CounterKind::FrontDepth => "sm_front",
            CounterKind::MissQueueDepth => "l1_miss_queue",
            CounterKind::RopQueueDepth => "rop_queue",
            CounterKind::L2QueueDepth => "l2_queue",
            CounterKind::L2MshrOccupancy => "l2_mshr",
            CounterKind::DramQueueDepth => "dram_queue",
            CounterKind::IcntInFlight => "icnt_in_flight",
            CounterKind::Outstanding => "outstanding",
            CounterKind::DramRowHitPermille => "dram_row_hit_permille",
        }
    }
}

/// One row of the counter registry: every gauge at one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// Sample cycle.
    pub cycle: u64,
    /// Gauge values, indexed by [`CounterKind::index`].
    pub values: [u64; CounterKind::COUNT],
}

/// Running summary of one counter over every sample taken (survives the
/// ring buffer rotating old samples out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSummary {
    /// Smallest sampled value (zero when no samples).
    pub min: u64,
    /// Largest sampled value.
    pub max: u64,
    /// Sum of sampled values.
    pub sum: u64,
    /// Samples integrated.
    pub samples: u64,
}

impl CounterSummary {
    /// Integrates one sampled value.
    pub fn observe(&mut self, v: u64) {
        if self.samples == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += v;
        self.samples += 1;
    }

    /// Arithmetic mean of the sampled values (0.0 when no samples).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Everything a traced run collected, taken out of the tracer in one move.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Recorded events, in recording order.
    pub events: Vec<TraceEvent>,
    /// Counter samples still in the ring (newest `counter_capacity`).
    pub samples: Vec<CounterSample>,
    /// Events dropped after `max_events` was reached.
    pub dropped_events: u64,
}

/// The simulator-side trace sink: bounded event buffer plus the sampled
/// counter registry.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    sample_interval: u64,
    max_events: usize,
    counter_capacity: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
    ring: VecDeque<CounterSample>,
    summaries: [CounterSummary; CounterKind::COUNT],
    samples_taken: u64,
}

impl Tracer {
    /// Builds a tracer from its configuration. Degenerate values are
    /// clamped (a zero sample interval samples every cycle).
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            enabled: cfg.enabled,
            sample_interval: cfg.sample_interval.max(1),
            max_events: cfg.max_events,
            counter_capacity: cfg.counter_capacity.max(1),
            events: Vec::new(),
            dropped: 0,
            ring: VecDeque::new(),
            summaries: [CounterSummary::default(); CounterKind::COUNT],
            samples_taken: 0,
        }
    }

    /// Is the tracer recording? Call sites use this to skip event
    /// construction entirely on the hot path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off mid-run.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Records one event. A disabled tracer returns immediately; a full
    /// buffer counts the drop instead of growing.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push(event);
    }

    /// Returns `true` when the counter registry should be sampled at
    /// `cycle` (enabled, and the cycle hits the sample interval).
    #[inline]
    pub fn should_sample(&self, cycle: u64) -> bool {
        self.enabled && cycle.is_multiple_of(self.sample_interval)
    }

    /// Stores one counter sample: pushed into the bounded ring (oldest
    /// rotates out) and integrated into the running summaries.
    pub fn sample(&mut self, cycle: u64, values: [u64; CounterKind::COUNT]) {
        if !self.enabled {
            return;
        }
        if self.ring.len() >= self.counter_capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(CounterSample { cycle, values });
        for (summary, &v) in self.summaries.iter_mut().zip(&values) {
            summary.observe(v);
        }
        self.samples_taken += 1;
    }

    /// Per-counter summaries over every sample taken so far.
    pub fn summaries(&self) -> &[CounterSummary; CounterKind::COUNT] {
        &self.summaries
    }

    /// Samples integrated (including any rotated out of the ring).
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Events recorded and retained so far.
    pub fn events_recorded(&self) -> u64 {
        self.events.len() as u64
    }

    /// Events dropped at the `max_events` cap.
    pub fn events_dropped(&self) -> u64 {
        self.dropped
    }

    /// Moves the collected data out, leaving the tracer empty (summaries
    /// and counts reset too).
    pub fn take(&mut self) -> TraceData {
        let data = TraceData {
            events: std::mem::take(&mut self.events),
            samples: self.ring.drain(..).collect(),
            dropped_events: std::mem::take(&mut self.dropped),
        };
        self.summaries = [CounterSummary::default(); CounterKind::COUNT];
        self.samples_taken = 0;
        data
    }

    // ---- snapshot codec ---------------------------------------------------

    /// Serializes the tracer completely: configuration knobs, every retained
    /// event, the drop counter, the counter-sample ring and the running
    /// summaries. A restored tracer keeps recording exactly where this one
    /// stopped, so a resumed run emits the identical event stream.
    pub fn encode_state(&self, e: &mut gpu_snapshot::Encoder) {
        e.bool(self.enabled);
        e.u64(self.sample_interval);
        e.usize(self.max_events);
        e.usize(self.counter_capacity);
        e.usize(self.events.len());
        for ev in &self.events {
            ev.encode_state(e);
        }
        e.u64(self.dropped);
        e.usize(self.ring.len());
        for s in &self.ring {
            e.u64(s.cycle);
            for v in s.values {
                e.u64(v);
            }
        }
        for s in &self.summaries {
            e.u64(s.min);
            e.u64(s.max);
            e.u64(s.sum);
            e.u64(s.samples);
        }
        e.u64(self.samples_taken);
    }

    /// Overwrites this tracer with a decoded checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects degenerate knob values and buffers exceeding their own caps,
    /// and propagates decoder errors.
    pub fn restore_state(
        &mut self,
        d: &mut gpu_snapshot::Decoder,
    ) -> Result<(), gpu_snapshot::SnapshotError> {
        use gpu_snapshot::SnapshotError::InvalidValue;
        self.enabled = d.bool()?;
        self.sample_interval = d.u64()?;
        if self.sample_interval == 0 {
            return Err(InvalidValue("tracer sample interval is zero"));
        }
        self.max_events = d.usize()?;
        self.counter_capacity = d.usize()?;
        if self.counter_capacity == 0 {
            return Err(InvalidValue("tracer counter capacity is zero"));
        }
        let n_events = d.usize()?;
        if n_events > self.max_events {
            return Err(InvalidValue("tracer events exceed their own cap"));
        }
        self.events.clear();
        self.events.reserve(n_events);
        for _ in 0..n_events {
            self.events.push(TraceEvent::decode(d)?);
        }
        self.dropped = d.u64()?;
        let n_samples = d.usize()?;
        if n_samples > self.counter_capacity {
            return Err(InvalidValue("tracer ring exceeds its own capacity"));
        }
        self.ring.clear();
        for _ in 0..n_samples {
            let cycle = d.u64()?;
            let mut values = [0u64; CounterKind::COUNT];
            for v in &mut values {
                *v = d.u64()?;
            }
            self.ring.push_back(CounterSample { cycle, values });
        }
        for s in &mut self.summaries {
            *s = CounterSummary {
                min: d.u64()?,
                max: d.u64()?,
                sum: d.u64()?,
                samples: d.u64()?,
            };
        }
        self.samples_taken = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceSite};

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            site: TraceSite::Gpu,
            kind: EventKind::MshrAllocate { line: cycle },
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(TraceConfig::default());
        assert!(!t.enabled());
        t.record(ev(1));
        t.sample(0, [1; CounterKind::COUNT]);
        assert!(!t.should_sample(0));
        let data = t.take();
        assert!(data.events.is_empty());
        assert!(data.samples.is_empty());
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut t = Tracer::new(TraceConfig {
            enabled: true,
            max_events: 2,
            ..TraceConfig::default()
        });
        for c in 0..5 {
            t.record(ev(c));
        }
        assert_eq!(t.events_recorded(), 2);
        assert_eq!(t.events_dropped(), 3);
        let data = t.take();
        assert_eq!(data.events.len(), 2);
        assert_eq!(data.dropped_events, 3);
    }

    #[test]
    fn counter_ring_rotates_but_summary_integrates_all() {
        let mut t = Tracer::new(TraceConfig {
            enabled: true,
            counter_capacity: 2,
            ..TraceConfig::default()
        });
        for (i, v) in [5u64, 1, 9, 3].into_iter().enumerate() {
            t.sample(i as u64, [v; CounterKind::COUNT]);
        }
        assert_eq!(t.samples_taken(), 4);
        let s = t.summaries()[0];
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert_eq!(s.sum, 18);
        assert_eq!(s.samples, 4);
        assert!((s.mean() - 4.5).abs() < 1e-12);
        let data = t.take();
        // Only the newest two samples survive the ring.
        assert_eq!(data.samples.len(), 2);
        assert_eq!(data.samples[0].values[0], 9);
        assert_eq!(data.samples[1].values[0], 3);
    }

    #[test]
    fn sample_interval_gates_should_sample() {
        let t = Tracer::new(TraceConfig {
            enabled: true,
            sample_interval: 8,
            ..TraceConfig::default()
        });
        assert!(t.should_sample(0));
        assert!(!t.should_sample(7));
        assert!(t.should_sample(16));
    }

    #[test]
    fn tracer_codec_resumes_recording_mid_run() {
        let cfg = TraceConfig {
            enabled: true,
            sample_interval: 4,
            max_events: 8,
            counter_capacity: 2,
        };
        let mut t = Tracer::new(cfg);
        for c in 0..6 {
            t.record(ev(c));
        }
        t.record(TraceEvent {
            cycle: 6,
            site: TraceSite::Gpu,
            kind: EventKind::Checkpoint { bytes: 0 },
        });
        for (i, v) in [5u64, 1, 9].into_iter().enumerate() {
            t.sample(i as u64 * 4, [v; CounterKind::COUNT]);
        }

        let mut e = gpu_snapshot::Encoder::new();
        t.encode_state(&mut e);
        let framed = e.finish();

        let mut restored = Tracer::new(TraceConfig::default());
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        restored.restore_state(&mut d).unwrap();
        d.expect_end().unwrap();

        // Re-encode equality.
        let mut e2 = gpu_snapshot::Encoder::new();
        restored.encode_state(&mut e2);
        assert_eq!(e2.finish(), framed);

        // Both tracers continue identically: fill to the cap, sample once
        // more, then compare everything they hand back.
        for tr in [&mut t, &mut restored] {
            for c in 7..12 {
                tr.record(ev(c));
            }
            tr.sample(12, [2; CounterKind::COUNT]);
        }
        assert_eq!(restored.events_recorded(), t.events_recorded());
        assert_eq!(restored.events_dropped(), t.events_dropped());
        assert_eq!(restored.samples_taken(), t.samples_taken());
        assert_eq!(restored.summaries(), t.summaries());
        let (a, b) = (t.take(), restored.take());
        assert_eq!(a.events, b.events);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.dropped_events, b.dropped_events);
    }

    #[test]
    fn tracer_restore_rejects_over_cap_buffers() {
        let mut t = Tracer::new(TraceConfig {
            enabled: true,
            max_events: 4,
            ..TraceConfig::default()
        });
        for c in 0..3 {
            t.record(ev(c));
        }
        let mut e = gpu_snapshot::Encoder::new();
        t.encode_state(&mut e);
        let good = e.finish();

        // Corrupt the payload: claiming more events than max_events must be
        // rejected. Easier to re-encode a lying stream than to patch bytes
        // (the checksum would catch a patch).
        let mut e = gpu_snapshot::Encoder::new();
        e.bool(true);
        e.u64(64);
        e.usize(2); // max_events
        e.usize(1 << 16);
        e.usize(3); // ...but three events follow
        let framed = e.finish();
        let mut d = gpu_snapshot::Decoder::open(&framed).unwrap();
        let mut fresh = Tracer::new(TraceConfig::default());
        assert!(matches!(
            fresh.restore_state(&mut d),
            Err(gpu_snapshot::SnapshotError::InvalidValue(_))
        ));

        // The untampered stream restores fine.
        let mut d = gpu_snapshot::Decoder::open(&good).unwrap();
        fresh.restore_state(&mut d).unwrap();
        d.expect_end().unwrap();
        assert_eq!(fresh.events_recorded(), 3);
    }

    #[test]
    fn counter_kind_indices_cover_all() {
        for (i, k) in CounterKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
