//! # gpu-trace — observability layer for the GPU latency simulator
//!
//! The paper's dynamic analysis (Section III) is an observability exercise:
//! GPGPU-Sim instrumented to follow every memory fetch through the
//! pipeline. This crate generalises our simulator's fixed Figure-1/2
//! aggregations into a first-class tracing layer:
//!
//! * [`Tracer`] — a zero-cost-when-disabled event sink plus a per-cycle
//!   sampled counter registry with bounded ring-buffer storage;
//! * [`TraceEvent`]/[`EventKind`] — the event taxonomy (SM stalls with
//!   [`StallReason`] attribution, coalescer, MSHR transitions, crossbar
//!   hops, queue moves, DRAM row commands);
//! * [`MetricsReport`] — counter summaries, stall breakdowns and host
//!   throughput, embedded in the simulator's `RunSummary`;
//! * exporters — Chrome trace-event JSON for Perfetto
//!   ([`ChromeTraceBuilder`]), JSONL and CSV for scripting, and a
//!   [`check_span_sums`] validator that re-parses the emitted JSON with the
//!   workspace [`json`] parser (all of them write through its `Writer`) and re-checks the sanitizer's stage-sum
//!   invariant on the exported spans;
//! * [`profile`] — the host-side self-profiler (`gpu-profile`): a
//!   zero-cost-when-off scoped profiler over the host monotonic clock that
//!   the simulator's cycle loop, parallel executors and bench harness
//!   report into, exported as `profile.txt`/`profile.json` and host-clock
//!   Perfetto tracks.
//!
//! The crate deliberately depends only on `gpu-types` and `gpu-mem` (for
//! `Timeline`): the simulator depends on *it*, not the other way around.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod tracer;

/// The workspace's JSON parser and writer, which live in `gpu-types`;
/// re-exported because this crate's exporters are their main user.
pub use gpu_types::json;

pub use chrome::{check_span_sums, ChromeTraceBuilder, TrackNames};
pub use event::{EventKind, NetDir, QueueKind, StallBreakdown, StallReason, TraceEvent, TraceSite};
pub use export::{counters_csv, events_jsonl};
pub use metrics::{cycles_per_second, MetricsReport};
pub use profile::{ProfCounter, ProfSpan, ProfileReport};
pub use tracer::{CounterKind, CounterSample, CounterSummary, TraceConfig, TraceData, Tracer};
