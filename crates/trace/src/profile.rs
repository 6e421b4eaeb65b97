//! `gpu-profile` — the simulator's host-side self-observability layer.
//!
//! The paper's methodology is instrumentation-first: GPGPU-Sim was profiled
//! until every fetch's latency was attributable. This module gives the
//! *simulator itself* the same treatment: a process-global, hierarchical
//! scoped profiler over the host monotonic clock, answering "where does
//! host wall-clock go?" across the cycle's stages, the grid pool and the
//! bench harness.
//!
//! # Design
//!
//! Every instrumentation site is a variant of a fixed enum ([`ProfSpan`]
//! for timed scopes, [`ProfCounter`] for event counts and gauges) backed by
//! a static table of atomics. Consequences:
//!
//! * **Zero-cost when off.** Every entry point loads one relaxed atomic
//!   bool and returns; no clock read, no allocation, no branch beyond the
//!   gate (pinned by `tests/profile_no_alloc.rs` with a counting
//!   allocator).
//! * **Allocation-free when on.** Recording a span or bumping a counter is
//!   two relaxed atomic adds; worker threads accumulate into the same
//!   table without locks. Only the bounded sample ring (for host-clock
//!   Perfetto tracks) takes a mutex, on a rate-limited path.
//! * **Simulation-invisible.** The profiler observes host time only; it
//!   never reads or writes simulated state, so `RunSummary` and
//!   `content_hash` are bit-identical with profiling on or off (pinned by
//!   `tests/profile_observability.rs`).
//!
//! # Clock domains
//!
//! Span totals and samples are *host* nanoseconds from
//! [`std::time::Instant`]; the simulator's own tracer records *simulated
//! cycles*. The two meet only in the exported Perfetto bundle, where
//! host-clock tracks live on their own process and are never compared
//! against cycle timestamps.
//!
//! # Hierarchy
//!
//! Spans form a static tree via [`ProfSpan::parent`]: the `run` span holds
//! the nine stages of a cycle, `tick_sms` holds the per-SM component
//! span, and so on. The grid-worker span is summed across worker threads,
//! so on multi-core hosts it can exceed the wall-clock it ran in — the tree
//! is attribution, not a strict timeline.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Writer;

/// Environment variable that switches the self-profiler on (`1`, `true`,
/// `on`; anything else, or unset, leaves it off).
pub const PROFILE_ENV: &str = "LATENCY_PROFILE";

/// A timed instrumentation site. The set is fixed at compile time so the
/// backing store is a static table of atomics — no allocation, no
/// registration, no locks on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfSpan {
    /// The whole cycle loop of one `Gpu::run` (or `run_checkpointed`).
    Run,
    /// The run loop's per-iteration control outside the tick stages: the
    /// grid-drained check and the idle-horizon scan (plus the jump and its
    /// stall crediting when the machine is quiescent).
    DrainCheck,
    /// Open both crossbar cycles (per-port injection budgets reset).
    BeginNetworks,
    /// Tick every memory partition: DRAM completions, L2 access, ROP exit.
    TickPartitions,
    /// Inject partition returns into the reply network.
    InjectReplies,
    /// Eject the request network into partition ROP pipelines.
    EjectRequests,
    /// Tick every SM: writeback, reply ejection, L1 access, miss injection,
    /// issue, CTA retirement.
    TickSms,
    /// Dispatch pending CTAs onto free SMs (round-robin).
    DispatchCtas,
    /// Cycle-level invariant sweep (sanitizing machines only).
    AuditInvariants,
    /// Counter sampling at the tracer's interval.
    SampleCounters,
    /// Advance the global cycle counter. Always last.
    AdvanceClock,
    /// One SM's share of a `TickSms` stage (summed over SMs).
    SmTick,
    /// One partition's share of a `TickPartitions` stage.
    PartitionTick,
    /// One crossbar network's `begin_cycle`.
    CrossbarTick,
    /// Grid-pool workers executing experiment points (`par_map`).
    GridWorkerBusy,
}

impl ProfSpan {
    /// Every span, in table order.
    pub const ALL: [ProfSpan; 15] = [
        ProfSpan::Run,
        ProfSpan::DrainCheck,
        ProfSpan::BeginNetworks,
        ProfSpan::TickPartitions,
        ProfSpan::InjectReplies,
        ProfSpan::EjectRequests,
        ProfSpan::TickSms,
        ProfSpan::DispatchCtas,
        ProfSpan::AuditInvariants,
        ProfSpan::SampleCounters,
        ProfSpan::AdvanceClock,
        ProfSpan::SmTick,
        ProfSpan::PartitionTick,
        ProfSpan::CrossbarTick,
        ProfSpan::GridWorkerBusy,
    ];

    /// Number of spans.
    pub const COUNT: usize = Self::ALL.len();

    /// The nine stages of one cycle, in the order the cycle loop runs them
    /// (`Gpu::tick_cycle` is where that order lives). Their totals tile
    /// the cycle loop: `tick()` stamps the clock once between stages,
    /// so consecutive deltas sum to the loop body with no metering gaps.
    pub const STAGES: [ProfSpan; 9] = [
        ProfSpan::BeginNetworks,
        ProfSpan::TickPartitions,
        ProfSpan::InjectReplies,
        ProfSpan::EjectRequests,
        ProfSpan::TickSms,
        ProfSpan::DispatchCtas,
        ProfSpan::AuditInvariants,
        ProfSpan::SampleCounters,
        ProfSpan::AdvanceClock,
    ];

    /// Index into the static span table.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short machine-readable name (JSON keys, Perfetto track names).
    pub const fn label(self) -> &'static str {
        match self {
            ProfSpan::Run => "run",
            ProfSpan::DrainCheck => "drain_check",
            ProfSpan::BeginNetworks => "begin_networks",
            ProfSpan::TickPartitions => "tick_partitions",
            ProfSpan::InjectReplies => "inject_replies",
            ProfSpan::EjectRequests => "eject_requests",
            ProfSpan::TickSms => "tick_sms",
            ProfSpan::DispatchCtas => "dispatch_ctas",
            ProfSpan::AuditInvariants => "audit_invariants",
            ProfSpan::SampleCounters => "sample_counters",
            ProfSpan::AdvanceClock => "advance_clock",
            ProfSpan::SmTick => "sm_tick",
            ProfSpan::PartitionTick => "partition_tick",
            ProfSpan::CrossbarTick => "crossbar_tick",
            ProfSpan::GridWorkerBusy => "grid_worker_busy",
        }
    }

    /// The span's parent in the attribution tree (`None` for roots: the
    /// run loop itself and the cross-cutting worker-thread spans).
    pub const fn parent(self) -> Option<ProfSpan> {
        match self {
            ProfSpan::Run | ProfSpan::GridWorkerBusy => None,
            ProfSpan::DrainCheck
            | ProfSpan::BeginNetworks
            | ProfSpan::TickPartitions
            | ProfSpan::InjectReplies
            | ProfSpan::EjectRequests
            | ProfSpan::TickSms
            | ProfSpan::DispatchCtas
            | ProfSpan::AuditInvariants
            | ProfSpan::SampleCounters
            | ProfSpan::AdvanceClock => Some(ProfSpan::Run),
            ProfSpan::SmTick => Some(ProfSpan::TickSms),
            ProfSpan::PartitionTick => Some(ProfSpan::TickPartitions),
            ProfSpan::CrossbarTick => Some(ProfSpan::BeginNetworks),
        }
    }

    /// The `/`-joined label path from the root (e.g. `run/tick_sms/issue`).
    pub fn path(self) -> String {
        match self.parent() {
            None => self.label().to_string(),
            Some(p) => format!("{}/{}", p.path(), self.label()),
        }
    }
}

/// A counted instrumentation site: monotonic event counts plus a few
/// last-write-wins gauges (marked in the variant docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfCounter {
    /// Experiment points executed by the grid pool (`par_map`).
    GridTasks,
    /// Simulated cycles ticked while profiling was enabled.
    CyclesTicked,
    /// Simulated cycles the run loop jumped over instead of ticking
    /// (idle-cycle skipping); `CyclesTicked + CyclesSkipped` is the cycles
    /// a run simulated.
    CyclesSkipped,
    /// Idle-interval jumps taken (`CyclesSkipped / IdleJumps` is the mean
    /// quiescent interval).
    IdleJumps,
    /// SM ticks left out of ticked cycles because the SM was asleep (its
    /// wake cycle ahead, no reply deliverable): the loaded machine's idle
    /// skipping, where `CyclesSkipped` is the quiescent machine's.
    SmTicksSlept,
    /// Partition ticks left out of ticked cycles, likewise.
    PartitionTicksSlept,
    /// Gauge: the GPU's outstanding-request counter at the last sample.
    Outstanding,
}

impl ProfCounter {
    /// Every counter, in table order.
    pub const ALL: [ProfCounter; 7] = [
        ProfCounter::GridTasks,
        ProfCounter::CyclesTicked,
        ProfCounter::CyclesSkipped,
        ProfCounter::IdleJumps,
        ProfCounter::SmTicksSlept,
        ProfCounter::PartitionTicksSlept,
        ProfCounter::Outstanding,
    ];

    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Index into the static counter table.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short machine-readable name (JSON keys, Perfetto track names).
    pub const fn label(self) -> &'static str {
        match self {
            ProfCounter::GridTasks => "grid_tasks",
            ProfCounter::CyclesTicked => "cycles_ticked",
            ProfCounter::CyclesSkipped => "cycles_skipped",
            ProfCounter::IdleJumps => "idle_jumps",
            ProfCounter::SmTicksSlept => "sm_ticks_slept",
            ProfCounter::PartitionTicksSlept => "partition_ticks_slept",
            ProfCounter::Outstanding => "outstanding",
        }
    }
}

struct SpanCell {
    count: AtomicU64,
    nanos: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: [SpanCell; ProfSpan::COUNT] = [const {
    SpanCell {
        count: AtomicU64::new(0),
        nanos: AtomicU64::new(0),
    }
}; ProfSpan::COUNT];
static COUNTERS: [AtomicU64; ProfCounter::COUNT] =
    [const { AtomicU64::new(0) }; ProfCounter::COUNT];
/// Host nanoseconds (since `START`) of the newest sample; gates the
/// rate-limited sampling path without taking the ring mutex. `u64::MAX`
/// means "no sample yet" so the first call always samples.
static LAST_SAMPLE: AtomicU64 = AtomicU64::new(u64::MAX);
static START: Mutex<Option<Instant>> = Mutex::new(None);
static SAMPLES: Mutex<SampleRing> = Mutex::new(SampleRing {
    samples: Vec::new(),
    dropped: 0,
});

/// Bound on retained samples: at the default 10 ms sampling gap this covers
/// a ~40-second run; longer runs keep the earliest window and count drops.
const SAMPLE_CAP: usize = 4096;

struct SampleRing {
    samples: Vec<ProfSample>,
    dropped: u64,
}

/// One host-clock snapshot of the cumulative span and counter tables, taken
/// on the rate-limited sampling path (see [`sample_at_interval`]). Exported
/// as Perfetto counter tracks: per-interval deltas of `span_nanos` show
/// where host time went over host time.
#[derive(Debug, Clone)]
pub struct ProfSample {
    /// Host nanoseconds since profiling was enabled.
    pub host_nanos: u64,
    /// Cumulative span nanoseconds, indexed by [`ProfSpan::index`].
    pub span_nanos: [u64; ProfSpan::COUNT],
    /// Counter values, indexed by [`ProfCounter::index`].
    pub counters: [u64; ProfCounter::COUNT],
}

/// Whether the self-profiler is currently recording. One relaxed load —
/// this is the whole cost of every instrumentation site when profiling is
/// off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switches the self-profiler on or off. Enabling (re)bases the host clock
/// for samples if no base exists yet; accumulated totals are kept — call
/// [`reset`] for a fresh measurement window.
pub fn set_enabled(on: bool) {
    if on {
        let mut start = START.lock().expect("profiler start lock");
        if start.is_none() {
            *start = Some(Instant::now());
        }
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Reads [`PROFILE_ENV`]: `1`, `true` or `on` request profiling.
pub fn env_requested() -> bool {
    matches!(
        std::env::var(PROFILE_ENV).as_deref().map(str::trim),
        Ok("1") | Ok("true") | Ok("on")
    )
}

/// Clears every span total, counter, and retained sample, and re-bases the
/// host clock. The enabled flag is left as is.
pub fn reset() {
    for cell in &SPANS {
        cell.count.store(0, Ordering::Relaxed);
        cell.nanos.store(0, Ordering::Relaxed);
    }
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    LAST_SAMPLE.store(u64::MAX, Ordering::Relaxed);
    {
        let mut ring = SAMPLES.lock().expect("profiler sample lock");
        ring.samples.clear();
        ring.dropped = 0;
    }
    let mut start = START.lock().expect("profiler start lock");
    *start = Some(Instant::now());
}

/// A scope guard returned by [`span`]: records the elapsed host time into
/// its site's total on drop. Inert (no clock read ever happens) when the
/// profiler was disabled at creation.
#[derive(Debug)]
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    site: ProfSpan,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            span_add(self.site, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a timed scope at `site`. When profiling is off this is one atomic
/// load and a stack write — no clock read, no allocation.
#[inline]
pub fn span(site: ProfSpan) -> SpanGuard {
    SpanGuard {
        site,
        start: enabled().then(Instant::now),
    }
}

/// Adds one occurrence of `nanos` host time to `site` (the manual form of
/// [`span`], for callers that batch their own clock reads). No-op
/// when profiling is off.
#[inline]
pub fn span_add(site: ProfSpan, nanos: u64) {
    if !enabled() {
        return;
    }
    let cell = &SPANS[site.index()];
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.nanos.fetch_add(nanos, Ordering::Relaxed);
}

/// Adds `n` to a counter. No-op when profiling is off.
#[inline]
pub fn add(counter: ProfCounter, n: u64) {
    if !enabled() {
        return;
    }
    COUNTERS[counter.index()].fetch_add(n, Ordering::Relaxed);
}

/// Stores `v` into a gauge-style counter. No-op when profiling is off.
#[inline]
pub fn set(counter: ProfCounter, v: u64) {
    if !enabled() {
        return;
    }
    COUNTERS[counter.index()].store(v, Ordering::Relaxed);
}

/// Reads a counter's current value (works whether or not profiling is on;
/// the progress heartbeat polls this from its own thread).
pub fn value(counter: ProfCounter) -> u64 {
    COUNTERS[counter.index()].load(Ordering::Relaxed)
}

/// Host nanoseconds since profiling was first enabled (0 before that).
pub fn elapsed_nanos() -> u64 {
    START
        .lock()
        .expect("profiler start lock")
        .map_or(0, |t0| t0.elapsed().as_nanos() as u64)
}

/// Takes a host-clock sample of the cumulative tables if at least
/// `min_gap_nanos` have passed since the previous one. Cheap to call every
/// cycle: the off path is one atomic load, the rate-limited path one clock
/// read and one atomic compare. Samples beyond the retention cap are
/// dropped (and counted) rather than evicting history.
pub fn sample_at_interval(min_gap_nanos: u64) {
    if !enabled() {
        return;
    }
    let now = elapsed_nanos();
    let last = LAST_SAMPLE.load(Ordering::Relaxed);
    if last != u64::MAX && now < last.saturating_add(min_gap_nanos) {
        return;
    }
    if LAST_SAMPLE
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        return; // another thread raced us to this interval
    }
    let mut span_nanos = [0u64; ProfSpan::COUNT];
    for (i, cell) in SPANS.iter().enumerate() {
        span_nanos[i] = cell.nanos.load(Ordering::Relaxed);
    }
    let mut counters = [0u64; ProfCounter::COUNT];
    for (i, c) in COUNTERS.iter().enumerate() {
        counters[i] = c.load(Ordering::Relaxed);
    }
    let mut ring = SAMPLES.lock().expect("profiler sample lock");
    if ring.samples.len() >= SAMPLE_CAP {
        ring.dropped += 1;
        return;
    }
    ring.samples.push(ProfSample {
        host_nanos: now,
        span_nanos,
        counters,
    });
}

/// One span's aggregate in a [`ProfileReport`].
#[derive(Debug, Clone, Copy)]
pub struct SpanStat {
    /// The instrumentation site.
    pub span: ProfSpan,
    /// Times the scope was entered.
    pub count: u64,
    /// Total host nanoseconds spent inside it.
    pub nanos: u64,
}

/// A snapshot of everything the profiler accumulated: span totals, counter
/// values, and the host-clock sample ring. Produced by [`report`];
/// rendered by [`ProfileReport::text`] (the `profile.txt` top-table) and
/// [`ProfileReport::json`] (`profile.json`), and consumed by the Chrome
/// trace builder for host-clock Perfetto tracks.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Host nanoseconds from enabling to this snapshot.
    pub total_nanos: u64,
    /// Aggregates for every span, in [`ProfSpan::ALL`] order.
    pub spans: Vec<SpanStat>,
    /// Counter values, in [`ProfCounter::ALL`] order.
    pub counters: [u64; ProfCounter::COUNT],
    /// The retained host-clock samples, oldest first.
    pub samples: Vec<ProfSample>,
    /// Samples dropped at the retention cap.
    pub samples_dropped: u64,
}

/// Snapshots the profiler's current state.
pub fn report() -> ProfileReport {
    let spans = ProfSpan::ALL
        .iter()
        .map(|&s| {
            let cell = &SPANS[s.index()];
            SpanStat {
                span: s,
                count: cell.count.load(Ordering::Relaxed),
                nanos: cell.nanos.load(Ordering::Relaxed),
            }
        })
        .collect();
    let mut counters = [0u64; ProfCounter::COUNT];
    for (i, c) in COUNTERS.iter().enumerate() {
        counters[i] = c.load(Ordering::Relaxed);
    }
    let (samples, samples_dropped) = {
        let ring = SAMPLES.lock().expect("profiler sample lock");
        (ring.samples.clone(), ring.dropped)
    };
    ProfileReport {
        total_nanos: elapsed_nanos(),
        spans,
        counters,
        samples,
        samples_dropped,
    }
}

impl ProfileReport {
    /// The aggregate for one span.
    pub fn span(&self, s: ProfSpan) -> SpanStat {
        self.spans[s.index()]
    }

    /// Total nanoseconds across the nine cycle-stage spans. The
    /// per-stage deltas are stamped back to back inside `Gpu::tick`, so
    /// this tiles the cycle-loop body (the gap to the `run` span is the
    /// drain check plus loop control).
    pub fn stage_nanos_sum(&self) -> u64 {
        ProfSpan::STAGES.iter().map(|&s| self.span(s).nanos).sum()
    }

    /// The value of one counter.
    pub fn counter(&self, c: ProfCounter) -> u64 {
        self.counters[c.index()]
    }

    /// Renders the `profile.txt` top-table: every entered span as one row
    /// (full path, count, total, mean, share of the `run` span), sorted by
    /// total descending, followed by the counters.
    pub fn text(&self) -> String {
        let run_nanos = self.span(ProfSpan::Run).nanos.max(1);
        let mut rows: Vec<&SpanStat> = self.spans.iter().filter(|s| s.count > 0).collect();
        rows.sort_by(|a, b| {
            b.nanos
                .cmp(&a.nanos)
                .then(a.span.index().cmp(&b.span.index()))
        });
        let mut out = String::new();
        out.push_str(&format!(
            "# gpu-profile: host-side self-observability ({:.3} s wall)\n",
            self.total_nanos as f64 / 1e9
        ));
        out.push_str(&format!(
            "{:<34} {:>12} {:>12} {:>11} {:>7}\n",
            "span", "count", "total_ms", "mean_us", "%run"
        ));
        for s in rows {
            out.push_str(&format!(
                "{:<34} {:>12} {:>12.3} {:>11.3} {:>6.1}%\n",
                s.span.path(),
                s.count,
                s.nanos as f64 / 1e6,
                s.nanos as f64 / 1e3 / s.count.max(1) as f64,
                s.nanos as f64 * 100.0 / run_nanos as f64,
            ));
        }
        out.push_str("\n[counters]\n");
        for c in ProfCounter::ALL {
            out.push_str(&format!("{} = {}\n", c.label(), self.counter(c)));
        }
        if self.samples_dropped > 0 {
            out.push_str(&format!(
                "\n# {} host-clock samples dropped at the retention cap\n",
                self.samples_dropped
            ));
        }
        out
    }

    /// Renders `profile.json`: machine-readable span totals (with paths and
    /// parents), counters, and sample metadata.
    pub fn json(&self) -> String {
        let mut w = Writer::indented();
        w.object().field("total_nanos", self.total_nanos);
        w.key("spans").array();
        for s in self.spans.iter().filter(|s| s.count > 0) {
            w.object().field("path", s.span.path());
            w.field("label", s.span.label());
            w.field("parent", s.span.parent().map(ProfSpan::label));
            w.field("count", s.count).field("nanos", s.nanos).end();
        }
        w.end().key("counters").object();
        for c in ProfCounter::ALL {
            w.field(c.label(), self.counter(c));
        }
        w.end().field("samples_retained", self.samples.len());
        w.field("samples_dropped", self.samples_dropped);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Profiler state is process-global; tests that toggle it serialize on
    /// this lock so the multi-threaded test runner cannot interleave them.
    static PROFILE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn span_table_is_consistent() {
        for (i, s) in ProfSpan::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{s:?} out of table order");
            assert!(!s.label().is_empty());
            // The parent chain terminates (paths are finite).
            assert!(s.path().split('/').count() <= 3, "{s:?} path too deep");
        }
        for (i, c) in ProfCounter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} out of table order");
        }
        for stage in ProfSpan::STAGES {
            assert_eq!(stage.parent(), Some(ProfSpan::Run));
        }
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        {
            let _s = span(ProfSpan::TickSms);
            add(ProfCounter::GridTasks, 5);
            set(ProfCounter::Outstanding, 9);
            span_add(ProfSpan::SmTick, 1000);
            sample_at_interval(0);
        }
        let r = report();
        assert_eq!(r.span(ProfSpan::TickSms).count, 0);
        assert_eq!(r.span(ProfSpan::SmTick).nanos, 0);
        assert_eq!(r.counter(ProfCounter::GridTasks), 0);
        assert_eq!(r.counter(ProfCounter::Outstanding), 0);
        assert!(r.samples.is_empty());
    }

    #[test]
    fn enabled_spans_and_counters_accumulate_and_render() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        {
            let _s = span(ProfSpan::Run);
            for _ in 0..3 {
                let _t = span(ProfSpan::TickSms);
                std::hint::black_box(0u64);
            }
            span_add(ProfSpan::SmTick, 500);
            add(ProfCounter::CyclesTicked, 7);
            set(ProfCounter::Outstanding, 42);
            sample_at_interval(0);
        }
        let r = report();
        set_enabled(false);
        assert_eq!(r.span(ProfSpan::TickSms).count, 3);
        assert_eq!(r.span(ProfSpan::Run).count, 1);
        assert_eq!(r.span(ProfSpan::SmTick).nanos, 500);
        assert_eq!(r.counter(ProfCounter::CyclesTicked), 7);
        assert_eq!(r.counter(ProfCounter::Outstanding), 42);
        assert_eq!(r.samples.len(), 1);
        assert!(r.samples[0].counters[ProfCounter::Outstanding.index()] == 42);

        let text = r.text();
        assert!(text.contains("run/tick_sms"), "{text}");
        assert!(text.contains("cycles_ticked = 7"), "{text}");

        let parsed = json::parse(&r.json()).expect("profile.json parses");
        let spans = parsed.get("spans").unwrap().as_arr().unwrap();
        assert!(spans.iter().any(|s| {
            s.get("path").and_then(json::Value::as_str) == Some("run/tick_sms")
                && s.get("count").and_then(json::Value::as_num) == Some(3.0)
        }));
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("cycles_ticked")
                .unwrap()
                .as_num(),
            Some(7.0)
        );
    }

    #[test]
    fn sampling_is_rate_limited_and_capped() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        // A huge gap: only the first call samples.
        sample_at_interval(u64::MAX);
        sample_at_interval(u64::MAX);
        let r = report();
        set_enabled(false);
        assert_eq!(r.samples.len(), 1);
        assert_eq!(r.samples_dropped, 0);
    }

    #[test]
    fn env_parsing_matches_contract() {
        // No env mutation (other tests run concurrently): exercise the
        // matcher through documented values only.
        assert_eq!(PROFILE_ENV, "LATENCY_PROFILE");
    }
}
