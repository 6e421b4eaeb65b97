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
//! Every instrumentation site is a variant of a fixed enum, [`ProfSpan`],
//! backed by a static table of atomics. The profiler only times: what a
//! run counts (cycles ticked and skipped, components slept) it keeps for
//! itself (`Gpu::idle_counts`), whether or not the profiler is on.
//! Consequences:
//!
//! * **Zero-cost when off.** Every entry point loads one relaxed atomic
//!   bool and returns; no clock read, no allocation, no branch beyond the
//!   gate (pinned by `tests/profile_no_alloc.rs` with a counting
//!   allocator).
//! * **Allocation-free when on.** Recording a span is two relaxed atomic
//!   adds; worker threads accumulate into the same
//!   table without locks. Nothing on the cycle path takes a lock.
//! * **Simulation-invisible.** The profiler observes host time only; it
//!   never reads or writes simulated state, so `RunSummary` and
//!   `content_hash` are bit-identical with profiling on or off (pinned by
//!   `tests/profile_observability.rs`).
//!
//! # Clock domains
//!
//! Span totals are *host* nanoseconds from [`std::time::Instant`]; the
//! simulator's own tracer records *simulated cycles*. The two meet only in
//! the exported Perfetto bundle, where the host-clock flame slices live on
//! their own process and are never compared against cycle timestamps.
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
    /// grid-drained check and the idle-horizon scan (plus the jump and the
    /// counter samples it steps through when the machine is quiescent).
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
/// When profiling was first enabled (or last [`reset`]): the base of
/// [`ProfileReport::total_nanos`]. Read only when a report is taken.
static START: Mutex<Option<Instant>> = Mutex::new(None);

/// Whether the self-profiler is currently recording. One relaxed load —
/// this is the whole cost of every instrumentation site when profiling is
/// off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switches the self-profiler on or off. Enabling bases the host clock
/// of [`ProfileReport::total_nanos`] if no base exists yet; accumulated
/// totals are kept — call [`reset`] for a fresh measurement window.
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

/// Clears every span total and re-bases the host clock. The
/// enabled flag is left as is.
pub fn reset() {
    for cell in &SPANS {
        cell.count.store(0, Ordering::Relaxed);
        cell.nanos.store(0, Ordering::Relaxed);
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

/// Host nanoseconds since profiling was first enabled (0 before that).
fn elapsed_nanos() -> u64 {
    START
        .lock()
        .expect("profiler start lock")
        .map_or(0, |t0| t0.elapsed().as_nanos() as u64)
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

/// A snapshot of everything the profiler accumulated: the span totals.
/// Produced by [`report`]; rendered by
/// [`ProfileReport::text`] (the `profile.txt` top-table) and
/// [`ProfileReport::json`] (`profile.json`), and laid out as a flame view
/// by the Chrome trace builder.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Host nanoseconds from enabling to this snapshot.
    pub total_nanos: u64,
    /// Aggregates for every span, in [`ProfSpan::ALL`] order.
    pub spans: Vec<SpanStat>,
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
    ProfileReport {
        total_nanos: elapsed_nanos(),
        spans,
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

    /// Renders the `profile.txt` top-table: every entered span as one row
    /// (full path, count, total, mean, share of the `run` span), sorted by
    /// total descending.
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
        out
    }

    /// Renders `profile.json`: machine-readable span totals (with paths and
    /// parents).
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
        w.end();
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
            span_add(ProfSpan::SmTick, 1000);
        }
        let r = report();
        assert_eq!(r.span(ProfSpan::TickSms).count, 0);
        assert_eq!(r.span(ProfSpan::SmTick).nanos, 0);
    }

    #[test]
    fn enabled_spans_accumulate_and_render() {
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
        }
        let r = report();
        set_enabled(false);
        assert_eq!(r.span(ProfSpan::TickSms).count, 3);
        assert_eq!(r.span(ProfSpan::Run).count, 1);
        assert_eq!(r.span(ProfSpan::SmTick).nanos, 500);

        let text = r.text();
        assert!(text.contains("run/tick_sms"), "{text}");

        let parsed = json::parse(&r.json()).expect("profile.json parses");
        let spans = parsed.get("spans").unwrap().as_arr().unwrap();
        assert!(spans.iter().any(|s| {
            s.get("path").and_then(json::Value::as_str) == Some("run/tick_sms")
                && s.get("count").and_then(json::Value::as_num) == Some(3.0)
        }));
    }

    #[test]
    fn env_parsing_matches_contract() {
        // No env mutation (other tests run concurrently): exercise the
        // matcher through documented values only.
        assert_eq!(PROFILE_ENV, "LATENCY_PROFILE");
    }
}
